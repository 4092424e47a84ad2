package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	ucq "repro"
	"repro/internal/wire"
)

// subJoinQuery is free-connex (full head), so auto mode certifies it and
// subscriptions maintain it with the constant-time old-membership filter.
const subJoinQuery = "Q(x,y,z) <- R(x,y), S(y,z)."

// appendRows appends rows to a dataset over the wire and returns its new
// info.
func appendRows(t *testing.T, url, name string, rels map[string][][]int64) DatasetInfo {
	t.Helper()
	resp := do(t, http.MethodPut, url+"/datasets/"+name, DatasetRequest{Relations: rels, Append: true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append to %s: status %d", name, resp.StatusCode)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// subItem is one decoded record of a subscription stream.
type subItem struct {
	tuple   []int64
	ev      *ucq.SubscriptionEvent
	trailer *ucq.StreamTrailer
	err     error
}

// subStream is an open subscription plus its decoded record feed.
type subStream struct {
	resp  *http.Response
	items chan subItem
}

// close abandons the subscription and drains the decoder goroutine.
func (s *subStream) close() {
	s.resp.Body.Close()
	for range s.items {
	}
}

// openSub subscribes to a dataset and decodes the stream into a channel in
// the background. accept selects the wire encoding ("" = NDJSON).
func openSub(t *testing.T, url, name string, req SubscribeRequest, accept string) *subStream {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/datasets/"+name+"/subscribe", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if accept != "" {
		hr.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		t.Fatalf("subscribe to %s: status %d (%s)", name, resp.StatusCode, er.Error)
	}
	s := &subStream{resp: resp, items: make(chan subItem, 65536)}
	go func() {
		defer close(s.items)
		tr, err := ucq.DecodeSubscriptionStream(resp.Body, resp.Header.Get("Content-Type"),
			func(t ucq.Tuple) bool {
				row := make([]int64, len(t))
				for i, v := range t {
					row[i] = int64(v)
				}
				s.items <- subItem{tuple: row}
				return true
			},
			func(ev ucq.SubscriptionEvent) bool {
				e := ev
				s.items <- subItem{ev: &e}
				return true
			})
		s.items <- subItem{trailer: tr, err: err}
	}()
	return s
}

// collectUntil reads the stream into set until a non-resync marker for at
// least version arrives. It fails on duplicate pushes (a subscription must
// push every answer exactly once) and reports whether a resync happened,
// in which case the set was restarted from scratch as the protocol
// demands.
func collectUntil(t *testing.T, s *subStream, version uint64, set map[string]bool) (resynced bool) {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for {
		select {
		case it, ok := <-s.items:
			if !ok {
				t.Fatalf("subscription stream closed before version %d", version)
			}
			switch {
			case it.err != nil:
				t.Fatalf("subscription stream failed: %v", it.err)
			case it.trailer != nil:
				t.Fatalf("subscription ended by server before version %d: %+v", version, it.trailer)
			case it.tuple != nil:
				key := fmt.Sprint(it.tuple)
				if set[key] {
					t.Fatalf("answer %s pushed twice", key)
				}
				set[key] = true
			case it.ev != nil && it.ev.Resync:
				// Discard state: the full set at the marker's version follows.
				resynced = true
				for k := range set {
					delete(set, k)
				}
			case it.ev != nil:
				if it.ev.Version >= version {
					return resynced
				}
			}
		case <-timeout:
			t.Fatalf("no marker for version %d within 30s", version)
		}
	}
}

// answerSet keys a full evaluation's rows like collectUntil does.
func answerSet(rows [][]int64) map[string]bool {
	m := make(map[string]bool, len(rows))
	for _, r := range rows {
		m[fmt.Sprint(r)] = true
	}
	return m
}

func sameAnswerSet(t *testing.T, got, want map[string]bool, what string) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Errorf("%s: missing answer %s", what, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: extra answer %s", what, k)
		}
	}
}

// randomRows makes n random R/S rows over a small shared domain, so joins
// across old and new rows keep appearing.
func randomRows(rng *rand.Rand, n int) map[string][][]int64 {
	rels := map[string][][]int64{"R": {}, "S": {}}
	for i := 0; i < n; i++ {
		rels["R"] = append(rels["R"], []int64{rng.Int63n(20), rng.Int63n(20)})
		rels["S"] = append(rels["S"], []int64{rng.Int63n(20), rng.Int63n(20)})
	}
	return rels
}

// TestSubscribeEquivalenceRandomized is the randomized maintenance
// equivalence arm: subscribe at v1, apply K random appends, and require
// that (initial answers ∪ pushed deltas) equals a full evaluation at the
// head version — in both modes and both wire encodings, with
// every answer pushed exactly once.
func TestSubscribeEquivalenceRandomized(t *testing.T) {
	execs := []struct {
		name string
		opts QueryOptions
	}{
		{"auto", QueryOptions{}},
		{"naive", QueryOptions{Mode: "naive"}},
	}
	wires := []struct {
		name   string
		accept string
	}{
		{"ndjson", ""},
		{"binary", wire.MediaTypeBinary},
	}
	for ei, ex := range execs {
		for wi, wc := range wires {
			t.Run(ex.name+"/"+wc.name, func(t *testing.T) {
				_, ts := newTestServer(t)
				defer ts.Close()
				rng := rand.New(rand.NewSource(int64(100 + 10*ei + wi)))

				info := putDataset(t, ts.URL, "live", randomRows(rng, 12))
				sub := openSub(t, ts.URL, "live", SubscribeRequest{Query: subJoinQuery, Options: ex.opts}, wc.accept)
				defer sub.close()

				set := map[string]bool{}
				collectUntil(t, sub, info.Version, set)
				const K = 6
				for i := 0; i < K; i++ {
					info = appendRows(t, ts.URL, "live", randomRows(rng, 3))
					if resynced := collectUntil(t, sub, info.Version, set); resynced {
						t.Fatalf("append %d forced a resync; the log should cover single-append windows", i)
					}
				}

				full, tr := queryDataset(t, ts.URL, "live", QueryRequest{Query: subJoinQuery, Options: ex.opts})
				if tr.DatasetVersion != info.Version {
					t.Fatalf("full eval saw version %d, want %d", tr.DatasetVersion, info.Version)
				}
				sameAnswerSet(t, set, answerSet(full), "after "+fmt.Sprint(K)+" appends")
			})
		}
	}
}

// TestSubscribeResyncOnReplace pins the degradation path: a PUT that
// replaces the dataset clears its append log, so the subscriber cannot be
// maintained incrementally — it must receive a resync marker and then the
// full answer set at the new version.
func TestSubscribeResyncOnReplace(t *testing.T) {
	_, ts := newTestServer(t)
	defer ts.Close()

	info := putDataset(t, ts.URL, "live", map[string][][]int64{
		"R": {{1, 2}, {3, 4}},
		"S": {{2, 5}, {4, 6}},
	})
	sub := openSub(t, ts.URL, "live", SubscribeRequest{Query: subJoinQuery}, "")
	defer sub.close()
	set := map[string]bool{}
	collectUntil(t, sub, info.Version, set)

	info = putDataset(t, ts.URL, "live", map[string][][]int64{
		"R": {{7, 8}, {9, 10}},
		"S": {{8, 11}, {10, 12}},
	})
	if !collectUntil(t, sub, info.Version, set) {
		t.Fatal("replace did not force a resync")
	}
	full, _ := queryDataset(t, ts.URL, "live", QueryRequest{Query: subJoinQuery})
	sameAnswerSet(t, set, answerSet(full), "after replace")

	if snap := getStats(t, ts.URL); snap.Subscriptions.Resyncs < 1 {
		t.Fatalf("stats report %d resyncs, want ≥ 1", snap.Subscriptions.Resyncs)
	}
}

// TestSubscribeCompactedLogResyncs drives a subscriber's window past the
// 32-entry append log: a burst of 40 appends between wake-ups can outrun
// the retained window. Whatever the timing, the final state must equal
// the head evaluation — incremental when the log covered it, by resync
// when it did not.
func TestSubscribeCompactedLogResyncs(t *testing.T) {
	_, ts := newTestServer(t)
	defer ts.Close()

	putDataset(t, ts.URL, "live", map[string][][]int64{
		"R": {{1, 2}},
		"S": {{2, 3}},
	})
	sub := openSub(t, ts.URL, "live", SubscribeRequest{Query: subJoinQuery}, "")
	defer sub.close()
	set := map[string]bool{}
	collectUntil(t, sub, 1, set)

	// Burst appends with no reads in between: wake-ups coalesce, and a
	// window of more than 32 appends exceeds the retained log.
	var info DatasetInfo
	for i := int64(0); i < 40; i++ {
		info = appendRows(t, ts.URL, "live", map[string][][]int64{
			"R": {{10 + i, 20 + i}},
			"S": {{20 + i, 30 + i}},
		})
	}
	collectUntil(t, sub, info.Version, set)
	full, _ := queryDataset(t, ts.URL, "live", QueryRequest{Query: subJoinQuery})
	sameAnswerSet(t, set, answerSet(full), "after append burst")
}

// TestSubscribeFromVersionResume is the reconnect e2e: a subscriber that
// died after the v2 marker reconnects with from_version=2 and receives
// exactly the answers added since — no resync, no repeats of what it
// already has — in auto and in naive mode alike.
func TestSubscribeFromVersionResume(t *testing.T) {
	_, ts := newTestServer(t)
	defer ts.Close()

	putDataset(t, ts.URL, "live", map[string][][]int64{
		"R": {{1, 2}},
		"S": {{2, 3}},
	})
	sub := openSub(t, ts.URL, "live", SubscribeRequest{Query: subJoinQuery}, "")
	seen := map[string]bool{}
	collectUntil(t, sub, 1, seen)
	info := appendRows(t, ts.URL, "live", map[string][][]int64{"R": {{4, 2}}})
	collectUntil(t, sub, info.Version, seen) // complete through v2
	sub.close()                              // connection dies

	// Answers keep arriving while nobody is connected.
	info = appendRows(t, ts.URL, "live", map[string][][]int64{"S": {{2, 9}}})

	full, _ := queryDataset(t, ts.URL, "live", QueryRequest{Query: subJoinQuery})
	wantDelta := answerSet(full)
	for k := range seen {
		delete(wantDelta, k)
	}
	if len(wantDelta) == 0 {
		t.Fatal("test append added no answers; the resume batch would be trivially empty")
	}

	sub2 := openSub(t, ts.URL, "live", SubscribeRequest{Query: subJoinQuery, FromVersion: 2}, "")
	defer sub2.close()
	delta := map[string]bool{}
	if resynced := collectUntil(t, sub2, info.Version, delta); resynced {
		t.Fatal("covered from_version window must resume incrementally, not resync")
	}
	sameAnswerSet(t, delta, wantDelta, "resume batch")

	// A naive-mode resume takes the difference of two naive evaluations:
	// the same exact delta, no resync.
	sub3 := openSub(t, ts.URL, "live",
		SubscribeRequest{Query: subJoinQuery, Options: QueryOptions{Mode: "naive"}, FromVersion: 2}, "")
	defer sub3.close()
	naiveDelta := map[string]bool{}
	if resynced := collectUntil(t, sub3, info.Version, naiveDelta); resynced {
		t.Fatal("naive-mode from_version resume over a covered window must not resync")
	}
	sameAnswerSet(t, naiveDelta, wantDelta, "naive resume batch")
}

// TestSubscribeAdmissionSeparateFromStreams pins the two-gate design: the
// subscription cap sheds with its own 429 reason, and saturated
// subscriptions leave query streaming untouched (and vice versa — the
// gauges under /stats tell them apart).
func TestSubscribeAdmissionSeparateFromStreams(t *testing.T) {
	_, ts := newTestServer(t, func(s *Server) { s.subAdmission = newAdmission(1, 50*time.Millisecond) })
	defer ts.Close()

	putDataset(t, ts.URL, "live", map[string][][]int64{
		"R": {{1, 2}},
		"S": {{2, 3}},
	})
	sub := openSub(t, ts.URL, "live", SubscribeRequest{Query: subJoinQuery}, "")
	defer sub.close()
	collectUntil(t, sub, 1, map[string]bool{}) // admitted and streaming

	resp := do(t, http.MethodPost, ts.URL+"/datasets/live/subscribe", SubscribeRequest{Query: subJoinQuery})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second subscription: status %d, want 429", resp.StatusCode)
	}
	var er ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er)
	if !strings.Contains(er.Error, "subscription limit") {
		t.Fatalf("shed reason %q does not name the subscription limit", er.Error)
	}

	// The query-stream gate is untouched: ordinary queries still run.
	full, tr := queryDataset(t, ts.URL, "live", QueryRequest{Query: subJoinQuery})
	if !tr.Done || len(full) == 0 {
		t.Fatalf("query stream starved by saturated subscriptions: done=%v count=%d", tr.Done, len(full))
	}

	snap := getStats(t, ts.URL)
	if snap.Wire.SubscriptionsActive != 1 || snap.Wire.MaxSubscriptions != 1 {
		t.Fatalf("wire gauges: active=%d max=%d, want 1/1", snap.Wire.SubscriptionsActive, snap.Wire.MaxSubscriptions)
	}
	if snap.Wire.SubscriptionsShed != 1 {
		t.Fatalf("wire gauges: shed=%d, want 1", snap.Wire.SubscriptionsShed)
	}
	if snap.Wire.StreamsActive != 0 {
		t.Fatalf("subscriptions leaked into the stream gauge: streams_active=%d", snap.Wire.StreamsActive)
	}
	if snap.Subscriptions.Active != 1 || snap.Subscriptions.Started != 1 {
		t.Fatalf("subscription section: active=%d started=%d, want 1/1", snap.Subscriptions.Active, snap.Subscriptions.Started)
	}
}

// TestSubscribeWarmsBindCache pins the pre-warm satellite: after an
// append, the subscriber's catch-up re-binds the (query, dataset, head
// version) tuple through the shared bind cache, so the next ordinary query
// for the new version is a bind-cache hit and pays no Theorem 12
// preprocessing.
func TestSubscribeWarmsBindCache(t *testing.T) {
	_, ts := newTestServer(t)
	defer ts.Close()

	putDataset(t, ts.URL, "live", map[string][][]int64{
		"R": {{1, 2}},
		"S": {{2, 3}},
	})
	sub := openSub(t, ts.URL, "live", SubscribeRequest{Query: subJoinQuery}, "")
	defer sub.close()
	collectUntil(t, sub, 1, map[string]bool{})

	info := appendRows(t, ts.URL, "live", map[string][][]int64{"R": {{7, 2}}})
	collectUntil(t, sub, info.Version, map[string]bool{})
	// The v2 marker proves the subscriber re-bound at v2 — the cache fill
	// is ordered before it, not racing the assertion below.
	warm := getStats(t, ts.URL).BindCache

	_, tr := queryDataset(t, ts.URL, "live", QueryRequest{Query: subJoinQuery})
	if tr.Bind != "hit" {
		t.Fatalf("first query after subscriber catch-up: bind=%q, want hit (pre-warmed)", tr.Bind)
	}
	after := getStats(t, ts.URL).BindCache
	if after.Misses != warm.Misses {
		t.Fatalf("query after catch-up added %d bind misses, want 0", after.Misses-warm.Misses)
	}
}

// TestSubscribeAbandonedNoGoroutineLeak abandons subscriptions at various
// points of their life and requires the handler goroutines (and their
// decode/enumeration helpers) to unwind to the baseline.
func TestSubscribeAbandonedNoGoroutineLeak(t *testing.T) {
	_, ts := newTestServer(t)
	defer ts.Close()
	putDataset(t, ts.URL, "live", map[string][][]int64{
		"R": {{1, 2}, {3, 4}},
		"S": {{2, 5}, {4, 6}},
	})

	baseline := runtime.NumGoroutine()
	subs := make([]*subStream, 0, 4)
	for i := 0; i < 4; i++ {
		sub := openSub(t, ts.URL, "live", SubscribeRequest{Query: subJoinQuery}, "")
		collectUntil(t, sub, 1, map[string]bool{})
		subs = append(subs, sub)
	}
	for _, sub := range subs {
		sub.close()
	}
	http.DefaultClient.Transport = http.DefaultTransport
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned subscriptions leaked goroutines: %d now vs %d at baseline",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubscribeGETAndErrors covers the request validation: a subscription
// is a POST with a strictly decoded JSON body, so a GET gets the mux's 405
// and a bad body or an unknown dataset is rejected before any stream
// opens.
func TestSubscribeGETAndErrors(t *testing.T) {
	_, ts := newTestServer(t)
	defer ts.Close()
	putDataset(t, ts.URL, "live", map[string][][]int64{
		"R": {{1, 2}},
		"S": {{2, 3}},
	})

	resp, err := http.Get(ts.URL + "/datasets/live/subscribe?query=" +
		"Q(x,y,z)%20%3C-%20R(x,y),%20S(y,z).")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET subscribe: status %d, want 405", resp.StatusCode)
	}

	for _, tc := range []struct {
		name, path string
		body       any
		status     int
	}{
		{"bad-from-version", "/datasets/live/subscribe",
			map[string]any{"query": subJoinQuery, "from_version": "x"}, http.StatusBadRequest},
		{"misspelt-field", "/datasets/live/subscribe",
			map[string]any{"query": subJoinQuery, "from_verison": 3}, http.StatusBadRequest},
		{"no-query", "/datasets/live/subscribe", SubscribeRequest{}, http.StatusBadRequest},
		{"unknown-dataset", "/datasets/nosuch/subscribe", SubscribeRequest{Query: subJoinQuery}, http.StatusNotFound},
	} {
		resp := do(t, http.MethodPost, ts.URL+tc.path, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	// count_only makes no sense on an endless stream.
	resp = do(t, http.MethodPost, ts.URL+"/datasets/live/subscribe",
		SubscribeRequest{Query: subJoinQuery, Options: QueryOptions{CountOnly: true}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("count_only subscription: status %d, want 400", resp.StatusCode)
	}
}

// TestSubscribeDropEndsStream pins the termination contract: dropping the
// dataset ends the subscription with an error trailer naming the drop,
// instead of leaving the client hanging silently.
func TestSubscribeDropEndsStream(t *testing.T) {
	_, ts := newTestServer(t)
	defer ts.Close()
	putDataset(t, ts.URL, "live", map[string][][]int64{
		"R": {{1, 2}},
		"S": {{2, 3}},
	})
	sub := openSub(t, ts.URL, "live", SubscribeRequest{Query: subJoinQuery}, "")
	defer sub.close()
	collectUntil(t, sub, 1, map[string]bool{})

	resp := do(t, http.MethodDelete, ts.URL+"/datasets/live", nil)
	resp.Body.Close()

	timeout := time.After(30 * time.Second)
	for {
		select {
		case it, ok := <-sub.items:
			if !ok {
				t.Fatal("stream closed without a trailer")
			}
			if it.err != nil {
				t.Fatalf("stream failed: %v", it.err)
			}
			if it.trailer != nil {
				if !strings.Contains(it.trailer.Error, "dropped") {
					t.Fatalf("trailer %+v does not report the drop", it.trailer)
				}
				return
			}
		case <-timeout:
			t.Fatal("no trailer within 30s of the drop")
		}
	}
}
