// ucq-serve is the long-lived streaming UCQ evaluation service: it serves
// ucq-run-style requests over HTTP, amortizing the Theorem 12 certificate
// search across requests through a prepared-plan cache keyed on
// (normalized query, schema), and streams answers as NDJSON while
// enumeration is still running.
//
// Usage:
//
//	ucq-serve [-addr :8454] [-data-dir ""]
//
// Everything else is fixed: a 128-entry plan cache, a 256-entry bind
// cache, a flush every 256 answers, a 64 MiB request body cap,
// 2×GOMAXPROCS concurrent streams with a 1 s queue deadline, 64
// concurrent subscriptions and a 32-entry append log per dataset.
//
// Endpoints:
//
//	POST   /query                 evaluate a UCQ over the instance in the
//	                              request body and stream the answers as
//	                              NDJSON (final line is a trailer object
//	                              with the count, engine mode and cache
//	                              state)
//	PUT    /datasets/{name}       register or replace a named dataset from
//	                              JSON rows ({"append": true} appends with
//	                              a version bump instead)
//	GET    /datasets              list datasets with versions and row counts
//	DELETE /datasets/{name}       drop a dataset and its cached binds
//	POST   /datasets/{name}/query evaluate a UCQ against a registered
//	                              dataset; the per-instance preprocessing
//	                              is served from the versioned bind cache,
//	                              so repeated queries skip straight to
//	                              enumeration
//	POST   /datasets/{name}/subscribe
//	                              live subscription: stream the dataset's
//	                              current answer set, then push exactly the
//	                              answers every later append adds
//	                              (incremental delta evaluation over the
//	                              append log), each batch ended by a
//	                              {"version": N} marker. from_version
//	                              resumes from a previous marker; slow
//	                              subscribers degrade to a resync marker +
//	                              full answer set, never unbounded memory
//	GET    /stats                 cache, bind-cache, dataset, delay,
//	                              cancellation and subscription counters
//	                              as JSON
//	GET    /healthz               liveness probe
//
// Both query endpoints take options.count_only, which answers with the
// exact answer count (capped at the request's limit) instead of a stream:
// certified plans whose members probe no earlier member count from the
// Theorem 12 counting passes without enumerating.
//
// Every certified plan is enumerated on the request's goroutine, one
// branch after another; a branch skips the answers an earlier branch
// contains (a constant-time index probe), so no answer set is ever held in
// memory and one stream uses one CPU at most. Both caches are keyed by
// content — the plan cache by mode, schema and canonical query, the bind
// cache by dataset, registration, version and query fingerprint — so
// their entries never go stale and nothing expires by time.
//
// Answer streams are NDJSON by default; a request whose Accept header
// names application/x-ucq-bin with the highest q-value gets the compact
// binary columnar frame encoding instead (see the README's "Wire
// protocol" section). Streaming requests are admission-controlled: at
// most 2×GOMAXPROCS run concurrently, excess requests queue for up to a
// second and are then shed with 429 + Retry-After; /stats reports the
// gate under "wire".
//
// Durability: -data-dir makes the dataset catalog persistent — every
// dataset write is journaled (snapshot + fsynced WAL) under the directory
// before the HTTP response acknowledges it, and a restarted server replays
// the journal, serving every dataset at the exact version its clients last
// saw.
//
// Cancellation is end to end: a client disconnect mid-stream cancels the
// request context, which stops the enumeration within one batch.
// SIGINT/SIGTERM triggers a graceful shutdown that cancels all in-flight
// streams the same way before the listener drains.
//
// Example:
//
//	curl -sN localhost:8454/query -d '{
//	  "query": "Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w). Q2(x,y,w) <- R1(x,y), R2(y,w).",
//	  "relations": {"R1": [[1,2]], "R2": [[2,3]], "R3": [[3,5]]}
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8454", "listen address")
	dataDir := flag.String("data-dir", "", "journal dataset writes under this directory and recover them on restart (empty = in-memory catalog)")
	flag.Parse()

	s, err := server.Open(*dataDir)
	if err != nil {
		log.Fatalf("ucq-serve: opening data dir: %v", err)
	}
	if *dataDir != "" {
		log.Printf("ucq-serve: durable catalog under %s", *dataDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Request contexts derive from ctx through BaseContext, so the first
	// SIGINT/SIGTERM cancels every in-flight stream: the handler's context
	// plumbing stops the enumerations, the streams end without a trailer,
	// and Shutdown below then completes promptly instead of waiting out
	// long-running enumerations.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("ucq-serve: listening on %s", *addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("ucq-serve: %v", err)
	case <-ctx.Done():
		log.Printf("ucq-serve: shutting down (in-flight streams cancelled)")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("ucq-serve: shutdown: %v", err)
		}
		// Only after the listener drains: in-flight writes journal through
		// the store right up to their acknowledgement.
		if err := s.Close(); err != nil {
			log.Printf("ucq-serve: closing store: %v", err)
		}
		log.Printf("ucq-serve: bye")
	}
}
