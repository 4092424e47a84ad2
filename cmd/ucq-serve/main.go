// ucq-serve is the long-lived streaming UCQ evaluation service: it serves
// ucq-run-style requests over HTTP, amortizing the Theorem 12 certificate
// search across requests through a prepared-plan cache keyed on
// (normalized query, schema), and streams answers as NDJSON while
// enumeration is still running.
//
// Usage:
//
//	ucq-serve [-addr :8454] [-cache 128] [-plan-cache-ttl 0] [-bind-cache 256]
//	          [-bind-cache-ttl 0] [-flush-every 256] [-max-body 67108864]
//	          [-data-dir ""] [-max-streams 2*GOMAXPROCS] [-queue-deadline 1s]
//	          [-max-subscriptions 64] [-append-log 32]
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
//	POST   /datasets/{name}/count answer with the exact answer count only:
//	                              certified single-branch plans count from
//	                              the Theorem 12 counting pass without
//	                              enumerating (also available anywhere via
//	                              options.count_only)
//	GET    /datasets/{name}/subscribe
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
//	                              cancellation, auto-decision and
//	                              subscription counters as JSON
//	GET    /healthz               liveness probe
//
// Execution is adaptive by default. Every certified plan is drained as
// root-range tasks that are disjoint by construction (a branch skips the
// answers an earlier branch contains — a constant-time index probe, so no
// answer set is ever held in memory); unless a request sets the workers
// option, the planner's cost model picks per bind, from the
// bound instance, whether those tasks run inline on the request's goroutine
// ("sequential") or on the work-stealing executor ("parallel"); /stats
// reports the decision mix under decision_modes. An explicit workers count
// pins the executor.
//
// Answer streams are NDJSON by default; a request whose Accept header
// names application/x-ucq-bin with the highest q-value gets the compact
// binary columnar frame encoding instead (see the README's "Wire
// protocol" section). Streaming requests are admission-controlled: at
// most -max-streams run concurrently, excess requests queue for up to
// -queue-deadline and are then shed with 429 + Retry-After; /stats
// reports the gate under "wire".
//
// Durability: -data-dir makes the dataset catalog persistent — every
// dataset write is journaled (snapshot + fsynced WAL) under the directory
// before the HTTP response acknowledges it, and a restarted server replays
// the journal, serving every dataset at the exact version its clients last
// saw.
//
// Cancellation is end to end: a client disconnect mid-stream cancels the
// request context, which stops the enumeration within one batch and frees
// any executor workers behind it. SIGINT/SIGTERM triggers a graceful shutdown that
// cancels all in-flight streams the same way before the listener drains.
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

	ucq "repro"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8454", "listen address")
	cache := flag.Int("cache", server.DefaultCacheSize, "prepared-plan cache capacity (entries)")
	planTTL := flag.Duration("plan-cache-ttl", 0, "prepared-plan cache TTL (0 = never expire)")
	bindCache := flag.Int("bind-cache", ucq.DefaultBindCacheSize, "dataset bind cache capacity (entries)")
	bindTTL := flag.Duration("bind-cache-ttl", 0, "dataset bind cache TTL (0 = never expire)")
	flushEvery := flag.Int("flush-every", server.DefaultFlushEvery, "flush the response every N answers (first answer always flushes)")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "maximum request body size in bytes")
	dataDir := flag.String("data-dir", "", "journal dataset writes under this directory and recover them on restart (empty = in-memory catalog)")
	maxStreams := flag.Int("max-streams", 0, "concurrent streaming-request cap; excess requests queue then shed with 429 (0 = 2*GOMAXPROCS)")
	queueDeadline := flag.Duration("queue-deadline", server.DefaultQueueDeadline, "how long a streaming request may queue for a slot before it is shed")
	maxSubscriptions := flag.Int("max-subscriptions", server.DefaultMaxSubscriptions, "concurrent /subscribe cap (separate gate from -max-streams, distinct 429 reason)")
	appendLog := flag.Int("append-log", ucq.DefaultAppendLogSize, "retained append-delta entries per dataset — the window subscribers can catch up over incrementally before degrading to a resync")
	flag.Parse()

	cfg := server.Config{
		CacheSize:        *cache,
		CacheTTL:         *planTTL,
		BindCacheSize:    *bindCache,
		BindCacheTTL:     *bindTTL,
		FlushEvery:       *flushEvery,
		MaxBodyBytes:     *maxBody,
		DataDir:          *dataDir,
		MaxStreams:       *maxStreams,
		QueueDeadline:    *queueDeadline,
		MaxSubscriptions: *maxSubscriptions,
		AppendLogSize:    *appendLog,
	}
	s, err := server.Open(cfg)
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
	// plumbing stops the enumeration executors, the streams end without a
	// trailer, and Shutdown below then completes promptly instead of
	// waiting out long-running enumerations.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("ucq-serve: listening on %s (plan cache: %d entries, bind cache: %d entries)", *addr, *cache, *bindCache)
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
