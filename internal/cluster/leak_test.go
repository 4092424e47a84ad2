package cluster_test

// Coordinator-side leak regression: every scatter attempt — probes,
// completed streams, aborted streams, 503s — must close its response body
// before the per-range retry loop moves on. Everything here runs
// in-process (client transport and worker servers alike), so a body leaked
// on the retry path pins its connection's goroutines on both ends and the
// process goroutine count gives it away.

import (
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// abortEveryOther hard-aborts every other scatter stream once it has
// written more than limit bytes (panic(http.ErrAbortHandler) severs the
// connection mid-body, the shape of a worker crash), and serves the rest
// cleanly — so every query forces retries without ever exhausting the
// retry budget. Probes stay under the limit and always survive.
func abortEveryOther(limit int) middleware {
	var calls atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/scatter") {
				next.ServeHTTP(w, r)
				return
			}
			if calls.Add(1)%2 == 1 {
				var killed atomic.Bool
				next.ServeHTTP(&abortWriter{ResponseWriter: w, n: new(atomic.Int64), limit: limit, killed: &killed}, r)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestCoordinatorScatterRetryLeak hammers the scatter/gather retry path —
// dozens of queries, each losing worker 0 mid-stream and re-issuing the
// remaining range — and checks the goroutine count settles back to the
// post-warmup baseline. A response body left open on any per-attempt path
// (aborted stream, failed probe, non-200 retry) keeps its connection's
// read/write loops alive and fails the settle.
func TestCoordinatorScatterRetryLeak(t *testing.T) {
	rels := clusterRelations(300, 10, 4)
	tc := bootCluster(t, 3,
		cluster.Config{MarkerEvery: 8, Backoff: time.Millisecond, StallTimeout: 5 * time.Second},
		// The abort threshold is sized for the binary encoding: compact
		// enough that a whole range can fit in a kilobyte, so the killer
		// must trip earlier to keep forcing retries.
		map[int]middleware{0: abortEveryOther(1 << 7)})
	tc.putDataset(t, "join", rels)
	want := referenceAnswers(t, fullJoin, rels)

	// Warm-up: let the transport dial its pool and the servers spin up
	// their per-connection goroutines before taking the baseline.
	tc.queryAnswers(t, "join", fullJoin)
	baseline := runtime.NumGoroutine()

	for i := 0; i < 25; i++ {
		got, trailer := tc.queryAnswers(t, "join", fullJoin)
		if trailer == nil {
			t.Fatalf("query %d: no trailer", i)
		}
		diffMultisets(t, got, want)
	}
	tot := tc.coord.Cluster().Totals()
	if tot.ScatterRetries < 10 {
		t.Fatalf("retries = %d, want ≥ 10 — the flaky worker forced nothing and the test exercised no retry teardown", tot.ScatterRetries)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= baseline+10 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("retried scatters leaked goroutines (likely unclosed response bodies): %d now vs %d after warmup",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
