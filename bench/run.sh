#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: runs the benchmark with the Go build
# cache inside the checkout, so that building reads and writes nothing
# outside it. `go run ./bench` does the same with the user's own cache.
set -eu
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/bench/out/go-cache" GOTOOLCHAIN=local GOPROXY=off
exec go run ./bench "$@"
