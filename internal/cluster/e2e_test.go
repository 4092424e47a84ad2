package cluster_test

// In-process multi-node harness: a coordinator and N workers on loopback
// (httptest), exercising the full HTTP surface — replication PUT, probe,
// root-range scatter, marker-resume retries, straggler re-splits and the
// /stats cluster section — against the single-node engine as ground
// truth. Answer comparisons are multiset-exact: any duplicated or lost
// tuple across worker streams fails the test.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	ucq "repro"
	"repro/internal/cluster"
	"repro/internal/server"
)

// fullJoin is certified and root-range partitionable; clusterRelations
// gives it nR*perZ answers.
const fullJoin = "Q(x,z,y) <- R(x,z), S(z,y)."

func clusterRelations(nR, zs, perZ int) map[string][][]int64 {
	rel := map[string][][]int64{}
	for i := 0; i < nR; i++ {
		rel["R"] = append(rel["R"], []int64{int64(i), int64(i % zs)})
	}
	for z := 0; z < zs; z++ {
		for j := 0; j < perZ; j++ {
			rel["S"] = append(rel["S"], []int64{int64(z), int64(z*1000 + j)})
		}
	}
	return rel
}

// referenceAnswers enumerates the query single-node, straight through the
// engine, and returns the answer multiset keyed by rendered tuple.
func referenceAnswers(t *testing.T, query string, rels map[string][][]int64) map[string]int {
	t.Helper()
	u, err := ucq.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := ucq.Prepare(u, &ucq.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ucq.InstanceFromRows(rels)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pq.BindExecContext(context.Background(), inst, &ucq.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]int{}
	for tup := range plan.All(context.Background()) {
		ref[string(ucq.AppendTupleJSON(nil, tup))]++
	}
	return ref
}

// middleware wraps one worker's handler (nil = passthrough).
type middleware func(http.Handler) http.Handler

// testCluster is one coordinator plus its workers, all on loopback.
type testCluster struct {
	coord    *server.Server
	coordURL string
	workers  []string
}

// bootCluster starts n workers (worker i wrapped by mws[i] when set) and
// a coordinator over them.
func bootCluster(t *testing.T, n int, cfg cluster.Config, mws map[int]middleware) *testCluster {
	t.Helper()
	var workers []string
	for i := 0; i < n; i++ {
		h := http.Handler(server.New(server.Config{}).Handler())
		if mw := mws[i]; mw != nil {
			h = mw(h)
		}
		ws := httptest.NewServer(h)
		t.Cleanup(ws.Close)
		workers = append(workers, ws.URL)
	}
	cfg.Workers = workers
	coord, err := server.NewCoordinator(server.Config{Cluster: cfg})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(coord.Handler())
	t.Cleanup(cs.Close)
	return &testCluster{coord: coord, coordURL: cs.URL, workers: workers}
}

func (tc *testCluster) putDataset(t *testing.T, name string, rels map[string][][]int64) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"relations": rels})
	req, _ := http.NewRequest(http.MethodPut, tc.coordURL+"/datasets/"+name, bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("PUT %s: status %d: %s", name, resp.StatusCode, e.Error)
	}
}

// queryAnswers streams one dataset query through the coordinator and
// returns the answer multiset plus the trailer (nil if the stream ended
// with an error object or truncated).
func (tc *testCluster) queryAnswers(t *testing.T, name, query string) (map[string]int, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"query": query})
	resp, err := http.Post(tc.coordURL+"/datasets/"+name+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := json.Marshal(resp.Header)
		t.Fatalf("query status = %d (%s)", resp.StatusCode, raw)
	}
	got := map[string]int{}
	var trailer map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "{") {
			var obj map[string]any
			if err := json.Unmarshal([]byte(line), &obj); err != nil {
				t.Fatalf("object line %q: %v", line, err)
			}
			if errMsg, ok := obj["error"]; ok {
				t.Fatalf("stream error: %v", errMsg)
			}
			trailer = obj
			continue
		}
		got[line]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return got, trailer
}

// diffMultisets reports the first few discrepancies between got and want.
func diffMultisets(t *testing.T, got, want map[string]int) {
	t.Helper()
	reported := 0
	for k, n := range want {
		if got[k] != n && reported < 5 {
			t.Errorf("answer %q: got %d, want %d", strings.TrimSpace(k), got[k], n)
			reported++
		}
	}
	for k, n := range got {
		if want[k] == 0 && reported < 5 {
			t.Errorf("unexpected answer %q (%d copies)", strings.TrimSpace(k), n)
			reported++
		}
	}
	if reported > 0 {
		t.Fatalf("answer multisets differ (got %d distinct, want %d)", len(got), len(want))
	}
}

// TestClusterEquivalence is the tentpole acceptance test: a coordinator
// with 3 workers returns exactly the single-node answer set, with zero
// duplicate tuples across the merged worker streams.
func TestClusterEquivalence(t *testing.T) {
	rels := clusterRelations(300, 20, 5)
	tc := bootCluster(t, 3, cluster.Config{MarkerEvery: 16}, nil)
	tc.putDataset(t, "join", rels)

	got, trailer := tc.queryAnswers(t, "join", fullJoin)
	diffMultisets(t, got, referenceAnswers(t, fullJoin, rels))

	if trailer == nil {
		t.Fatal("no trailer")
	}
	if trailer["scatter"] != "root-range" || trailer["workers"] != float64(3) {
		t.Errorf("trailer scatter/workers = %v/%v", trailer["scatter"], trailer["workers"])
	}
	if trailer["count"] != float64(300*5) {
		t.Errorf("trailer count = %v", trailer["count"])
	}
	tot := tc.coord.Cluster().Totals()
	if tot.ScatterQueries != 1 || tot.ScatterCalls < 3 {
		t.Errorf("totals = %+v", tot)
	}
}

// TestClusterFallbackEquivalence routes a non-partitionable union through
// the single-worker fallback and still matches the single-node engine.
func TestClusterFallbackEquivalence(t *testing.T) {
	union := `
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`
	rels := map[string][][]int64{
		"R1": {{1, 2}, {4, 2}},
		"R2": {{2, 3}},
		"R3": {{3, 5}, {3, 6}},
	}
	tc := bootCluster(t, 3, cluster.Config{}, nil)
	tc.putDataset(t, "union", rels)

	got, trailer := tc.queryAnswers(t, "union", union)
	diffMultisets(t, got, referenceAnswers(t, union, rels))
	if trailer["scatter"] != "single-worker" || trailer["workers"] != float64(1) {
		t.Errorf("trailer scatter/workers = %v/%v", trailer["scatter"], trailer["workers"])
	}
	tot := tc.coord.Cluster().Totals()
	if tot.SingleWorkerFallbacks != 1 || tot.ScatterQueries != 0 {
		t.Errorf("totals = %+v", tot)
	}
}

// killAfter aborts a worker's scatter stream once the worker has written
// more than limit bytes, and answers 503 to every scatter call after that —
// a worker killed mid-enumeration that never comes back. The budget is
// cumulative over the worker's calls: peers that steal most of its range
// shorten its calls, but cannot keep it from ever reaching the limit.
func killAfter(limit int) (middleware, *atomic.Bool) {
	var killed atomic.Bool
	var written atomic.Int64
	mw := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/scatter") {
				next.ServeHTTP(w, r)
				return
			}
			if killed.Load() {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, `{"error":"worker down"}`)
				return
			}
			next.ServeHTTP(&abortWriter{ResponseWriter: w, n: &written, limit: limit, killed: &killed}, r)
		})
	}
	return mw, &killed
}

type abortWriter struct {
	http.ResponseWriter
	n      *atomic.Int64 // bytes written so far, shared by every call it covers
	limit  int
	killed *atomic.Bool
}

func (aw *abortWriter) Write(p []byte) (int, error) {
	if aw.n.Add(int64(len(p))) > int64(aw.limit) {
		aw.killed.Store(true)
		panic(http.ErrAbortHandler)
	}
	return aw.ResponseWriter.Write(p)
}

func (aw *abortWriter) Flush() {
	if f, ok := aw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestClusterWorkerKillMidStream kills one worker mid-enumeration (its
// stream aborts past 1KB, then the node answers only 503) and checks the
// merged stream still completes with the exact answer set: the
// coordinator resumes the dead worker's remaining range from its last
// marker on the survivors.
func TestClusterWorkerKillMidStream(t *testing.T) {
	rels := clusterRelations(600, 20, 5)
	mw, killed := killAfter(1 << 10)
	tc := bootCluster(t, 3,
		cluster.Config{MarkerEvery: 8, Backoff: 2 * time.Millisecond, StallTimeout: 5 * time.Second},
		map[int]middleware{0: mw})
	tc.putDataset(t, "join", rels)

	got, trailer := tc.queryAnswers(t, "join", fullJoin)
	diffMultisets(t, got, referenceAnswers(t, fullJoin, rels))
	if trailer == nil {
		t.Fatal("no trailer after worker kill")
	}
	if !killed.Load() {
		t.Fatal("the kill middleware never triggered — the test exercised nothing")
	}
	tot := tc.coord.Cluster().Totals()
	if tot.ScatterRetries < 1 {
		t.Errorf("retries = %d, want ≥ 1 after a worker kill", tot.ScatterRetries)
	}
}

// slowWriter delays every scatter write, making one worker a straggler.
func slowWriter(delay time.Duration) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/scatter") {
				next.ServeHTTP(w, r)
				return
			}
			next.ServeHTTP(&sleepyWriter{ResponseWriter: w, delay: delay}, r)
		})
	}
}

type sleepyWriter struct {
	http.ResponseWriter
	delay time.Duration
}

func (sw *sleepyWriter) Write(p []byte) (int, error) {
	time.Sleep(sw.delay)
	return sw.ResponseWriter.Write(p)
}

func (sw *sleepyWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestClusterStragglerResplit makes one worker pathologically slow and
// checks that idle peers steal the remainder of its range at a marker
// boundary (a re-split), the distributed mirror of internal/exec's
// steal/split, without disturbing the answer set.
func TestClusterStragglerResplit(t *testing.T) {
	rels := clusterRelations(600, 20, 5)
	tc := bootCluster(t, 3,
		cluster.Config{MarkerEvery: 8, StallTimeout: 30 * time.Second},
		map[int]middleware{0: slowWriter(time.Millisecond)})
	tc.putDataset(t, "join", rels)

	got, _ := tc.queryAnswers(t, "join", fullJoin)
	diffMultisets(t, got, referenceAnswers(t, fullJoin, rels))
	tot := tc.coord.Cluster().Totals()
	if tot.ScatterResplits < 1 {
		t.Errorf("resplits = %d, want ≥ 1 with a straggling worker", tot.ScatterResplits)
	}
}

// hangAfter freezes a worker's scatter streams (no bytes, no close) once
// it has written limit bytes across all calls — the budget is cumulative,
// so a re-issued call cannot reset it — blocking until the client hangs
// up. Only the stall deadline can unstick the coordinator's fetcher.
func hangAfter(limit int) middleware {
	var written atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/scatter") {
				next.ServeHTTP(w, r)
				return
			}
			next.ServeHTTP(&frozenWriter{ResponseWriter: w, written: &written, limit: int64(limit), ctx: r.Context()}, r)
		})
	}
}

type frozenWriter struct {
	http.ResponseWriter
	written *atomic.Int64
	limit   int64
	ctx     context.Context
}

func (fw *frozenWriter) Write(p []byte) (int, error) {
	if fw.written.Load() > fw.limit {
		<-fw.ctx.Done()
		return 0, fw.ctx.Err()
	}
	fw.written.Add(int64(len(p)))
	return fw.ResponseWriter.Write(p)
}

func (fw *frozenWriter) Flush() {
	if f, ok := fw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestClusterStallDeadline freezes one worker mid-stream: the per-worker
// stall deadline must cancel its call and fail the remaining range over
// to the healthy workers, exactly — a frozen worker is indistinguishable
// from a dead one except that only the deadline can unstick it.
func TestClusterStallDeadline(t *testing.T) {
	rels := clusterRelations(600, 20, 5)
	tc := bootCluster(t, 3,
		cluster.Config{MarkerEvery: 8, StallTimeout: 250 * time.Millisecond, Backoff: 2 * time.Millisecond},
		map[int]middleware{0: hangAfter(2 << 10)})
	tc.putDataset(t, "join", rels)

	start := time.Now()
	got, trailer := tc.queryAnswers(t, "join", fullJoin)
	diffMultisets(t, got, referenceAnswers(t, fullJoin, rels))
	if trailer == nil {
		t.Fatal("no trailer after stall failover")
	}
	tot := tc.coord.Cluster().Totals()
	if tot.ScatterRetries < 1 {
		t.Errorf("retries = %d, want ≥ 1 after a stall", tot.ScatterRetries)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stall failover took %s", elapsed)
	}
}

// TestClusterStatsAggregation covers the /stats bugfix: the coordinator's
// own process-local counters (delay window, decision_modes) must not
// masquerade as cluster truth — worker snapshots are namespaced per
// worker and the cross-worker totals are explicit.
func TestClusterStatsAggregation(t *testing.T) {
	rels := clusterRelations(120, 10, 3)
	tc := bootCluster(t, 3, cluster.Config{MarkerEvery: 8}, nil)
	tc.putDataset(t, "join", rels)
	got, _ := tc.queryAnswers(t, "join", fullJoin)

	resp, err := http.Get(tc.coordURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		AnswersStreamed int64            `json:"answers_streamed"`
		DecisionModes   map[string]int64 `json:"decision_modes"`
		ScatterRequests int64            `json:"scatter_requests"`
		Cluster         *struct {
			Workers                    []string                   `json:"workers"`
			Scatter                    cluster.Totals             `json:"scatter"`
			WorkerAnswersStreamedTotal int64                      `json:"worker_answers_streamed_total"`
			WorkerDecisionModesTotal   map[string]int64           `json:"worker_decision_modes_total"`
			WorkerStats                map[string]json.RawMessage `json:"worker_stats"`
			WorkerErrors               map[string]string          `json:"worker_errors"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cluster == nil {
		t.Fatal("no cluster section on the coordinator's /stats")
	}
	if len(snap.Cluster.Workers) != 3 || len(snap.Cluster.WorkerStats) != 3 || len(snap.Cluster.WorkerErrors) != 0 {
		t.Fatalf("cluster section = %d workers, %d snapshots, errors %v",
			len(snap.Cluster.Workers), len(snap.Cluster.WorkerStats), snap.Cluster.WorkerErrors)
	}
	if snap.Cluster.Scatter.ScatterQueries != 1 {
		t.Errorf("scatter totals = %+v", snap.Cluster.Scatter)
	}
	// The coordinator process enumerated nothing locally; the workers did
	// all of it. Namespacing keeps the two readings distinct instead of
	// conflating them into one misleading number.
	var total int
	for _, n := range got {
		total += n
	}
	if snap.ScatterRequests != 0 {
		t.Errorf("coordinator scatter_requests = %d (it serves none itself)", snap.ScatterRequests)
	}
	if snap.Cluster.WorkerAnswersStreamedTotal < int64(total) {
		t.Errorf("worker answers total = %d, want ≥ %d",
			snap.Cluster.WorkerAnswersStreamedTotal, total)
	}
	if snap.AnswersStreamed != int64(total) {
		t.Errorf("coordinator answers_streamed = %d, want %d (the merged stream)", snap.AnswersStreamed, total)
	}
	// Worker snapshots are full server snapshots, individually addressable.
	for w, raw := range snap.Cluster.WorkerStats {
		var ws struct {
			ScatterRequests int64 `json:"scatter_requests"`
		}
		if err := json.Unmarshal(raw, &ws); err != nil {
			t.Fatalf("worker %s snapshot: %v", w, err)
		}
		if ws.ScatterRequests < 1 {
			t.Errorf("worker %s served %d scatter calls, want ≥ 1", w, ws.ScatterRequests)
		}
	}
}

// TestClusterDatasetLifecycle walks the registry: list, get, drop, and
// the 404s around them.
func TestClusterDatasetLifecycle(t *testing.T) {
	tc := bootCluster(t, 2, cluster.Config{}, nil)
	tc.putDataset(t, "join", clusterRelations(12, 3, 2))

	resp, err := http.Get(tc.coordURL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Datasets []struct {
			Name string `json:"name"`
			Rows int    `json:"rows"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "join" {
		t.Fatalf("list = %+v", list)
	}

	// A misspelt append flag is rejected by the coordinator's shape check,
	// naming the field, before any worker could take it for a replace.
	bad, _ := json.Marshal(map[string]any{"relations": map[string][][]int64{"R": {{1, 1}}}, "apend": true})
	req, _ := http.NewRequest(http.MethodPut, tc.coordURL+"/datasets/join", bytes.NewReader(bad))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rejected struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&rejected)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(rejected.Error, "apend") {
		t.Fatalf("misspelt append: status %d, error %q; want 400 naming the field", resp.StatusCode, rejected.Error)
	}
	for _, w := range tc.workers {
		resp, err := http.Get(w + "/datasets/join")
		if err != nil {
			t.Fatal(err)
		}
		var info cluster.DatasetInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if info.Version != 1 || info.Rows != list.Datasets[0].Rows {
			t.Errorf("worker %s after the rejected PUT: %+v, want v1 with %d rows", w, info, list.Datasets[0].Rows)
		}
	}

	// Count proxies to one worker; the replica count is the cluster count.
	body, _ := json.Marshal(map[string]any{"query": fullJoin})
	resp, err = http.Post(tc.coordURL+"/datasets/join/count", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cr struct {
		Count int64 `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cr.Count != 12*2 {
		t.Errorf("count = %d", cr.Count)
	}

	req, _ = http.NewRequest(http.MethodDelete, tc.coordURL+"/datasets/join", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}

	// Gone everywhere: the coordinator 404s, and so does each worker.
	qbody, _ := json.Marshal(map[string]any{"query": fullJoin})
	resp, err = http.Post(tc.coordURL+"/datasets/join/query", "application/json", bytes.NewReader(qbody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("query after drop = %d", resp.StatusCode)
	}
	for _, w := range tc.workers {
		resp, err := http.Get(w + "/datasets/join")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("worker %s still has the dataset: %d", w, resp.StatusCode)
		}
	}
}
