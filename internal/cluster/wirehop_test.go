package cluster_test

// Scatter-hop encoding coverage: the coordinator⇄worker hop is binary
// only, regardless of what the client negotiated, and the merged stream is
// re-framed in the client's encoding. Both directions are asserted here —
// worker-side /stats wire counters prove the hop ran binary, and the client
// sees its own Accept honored — as is the failure side: a worker answering
// in anything but the binary encoding is failed over or fails the query
// loudly, and a merge that dies after delivery ends in an error trailer.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	ucq "repro"
	"repro/internal/cluster"
	"repro/internal/wire"
)

// workerWireStats fetches one worker's /stats wire section.
func workerWireStats(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Wire map[string]int64 `json:"wire"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats.Wire
}

// TestScatterHopBinary: a dataset query through the coordinator — client
// on either encoding — must reach the workers as binary scatter streams,
// and the client must get back its negotiated encoding with the exact
// single-node answer set.
func TestScatterHopBinary(t *testing.T) {
	rels := clusterRelations(120, 12, 4)
	tc := bootCluster(t, 3, cluster.Config{MarkerEvery: 16}, nil)
	tc.putDataset(t, "join", rels)
	want := referenceAnswers(t, fullJoin, rels)
	total := 0
	for _, n := range want {
		total += n
	}

	for _, accept := range []string{wire.MediaTypeNDJSON, wire.MediaTypeBinary} {
		body, _ := json.Marshal(map[string]any{"query": fullJoin})
		req, err := http.NewRequest(http.MethodPost, tc.coordURL+"/datasets/join/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("Accept %q: status %d", accept, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, accept) {
			resp.Body.Close()
			t.Fatalf("Accept %q: coordinator answered Content-Type %q", accept, ct)
		}
		got := map[string]int{}
		tr, err := ucq.DecodeAnswerStream(resp.Body, resp.Header.Get("Content-Type"), func(tup ucq.Tuple) bool {
			got[string(ucq.AppendTupleJSON(nil, tup))]++
			return true
		})
		resp.Body.Close()
		if err != nil {
			t.Fatalf("Accept %q: decoding merged stream: %v", accept, err)
		}
		if tr == nil || !tr.Done {
			t.Fatalf("Accept %q: stream ended without a done trailer (%+v)", accept, tr)
		}
		if tr.Count != total {
			t.Fatalf("Accept %q: trailer count = %d, want %d", accept, tr.Count, total)
		}
		diffMultisets(t, got, want)
	}

	// Every worker served its scatter ranges in binary (probes end before
	// the stream accounting starts, and are binary too).
	var binary, ndjson int64
	for _, w := range tc.workers {
		ws := workerWireStats(t, w)
		binary += ws["binary_requests"]
		ndjson += ws["ndjson_requests"]
	}
	if binary == 0 {
		t.Fatalf("no worker recorded a binary scatter stream (ndjson=%d)", ndjson)
	}
	if ndjson != 0 {
		t.Errorf("workers recorded %d ndjson streams; the scatter hop is binary only", ndjson)
	}
}

// coordQuery runs one dataset query through the coordinator and decodes
// whatever comes back: the HTTP status, the error body of a non-200, or the
// answer multiset and trailer of a stream.
func (tc *testCluster) coordQuery(t *testing.T, name, query, mode, accept string) (status int, errMsg string, got map[string]int, tr *ucq.StreamTrailer) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"query": query, "options": map[string]string{"mode": mode}})
	req, err := http.NewRequest(http.MethodPost, tc.coordURL+"/datasets/"+name+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", accept)
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
		return resp.StatusCode, e.Error, nil, nil
	}
	got = map[string]int{}
	tr, err = ucq.DecodeAnswerStream(resp.Body, resp.Header.Get("Content-Type"), func(tup ucq.Tuple) bool {
		got[string(ucq.AppendTupleJSON(nil, tup))]++
		return true
	})
	if err != nil {
		t.Fatalf("decoding the coordinator's stream: %v", err)
	}
	return resp.StatusCode, "", got, tr
}

// Which worker call a textWorker lies on.
const (
	lieProbe    = "probe"
	lieScatter  = "scatter"
	lieFallback = "fallback"
)

// textWorker makes a worker answer one kind of call the way something that
// is not a same-build worker would: 200, the given Content-Type ("" = none
// at all), and a body that a text decoder would take for a complete, empty
// NDJSON stream. Everything else passes through to the real worker.
func textWorker(contentType, call string) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			kind := ""
			switch {
			case r.Method != http.MethodPost:
			case strings.HasSuffix(r.URL.Path, "/query"):
				kind = lieFallback
			case strings.HasSuffix(r.URL.Path, "/scatter"):
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				kind = lieScatter
				if sr, err := cluster.DecodeScatterRequest(body); err == nil && sr.Probe {
					kind = lieProbe
				}
			}
			if kind != call {
				next.ServeHTTP(w, r)
				return
			}
			// A nil entry suppresses net/http's content sniffing.
			w.Header()["Content-Type"] = nil
			if contentType != "" {
				w.Header().Set("Content-Type", contentType)
			}
			io.WriteString(w, `{"header":true,"scatterable":true}`+"\n"+`{"done":true,"count":0}`+"\n")
		})
	}
}

// TestNonBinaryWorkerFailsLoudly: a worker that answers a probe, a scatter
// call or a single-worker fallback call in NDJSON — or with no Content-Type
// at all — is a protocol error. While a healthy worker remains the call
// fails over and the answer set is exact; when none does, the query fails
// with an error naming the worker and the content type. Never a done:true
// trailer over missing answers, never a panic.
func TestNonBinaryWorkerFailsLoudly(t *testing.T) {
	rels := clusterRelations(120, 12, 4)
	want := referenceAnswers(t, fullJoin, rels)
	for ctName, ct := range map[string]string{"ndjson": wire.MediaTypeNDJSON, "no-content-type": ""} {
		for _, call := range []string{lieProbe, lieScatter, lieFallback} {
			mode := "auto"
			if call == lieFallback {
				mode = "naive" // naive plans are never scatterable
			}
			named := func(t *testing.T, msg string, workers []string) {
				t.Helper()
				if !strings.Contains(msg, `Content-Type "`+ct+`"`) {
					t.Errorf("error %q does not name the content type %q", msg, ct)
				}
				for _, w := range workers {
					if strings.Contains(msg, w) {
						return
					}
				}
				t.Errorf("error %q names none of the workers %v", msg, workers)
			}
			t.Run(call+"/"+ctName+"/fails-over", func(t *testing.T) {
				mw := textWorker(ct, call)
				tc := bootCluster(t, 3, cluster.Config{MarkerEvery: 16, Backoff: time.Millisecond},
					map[int]middleware{0: mw, 1: mw})
				tc.putDataset(t, "join", rels)
				status, msg, got, tr := tc.coordQuery(t, "join", fullJoin, mode, wire.MediaTypeNDJSON)
				if status != http.StatusOK || tr == nil || !tr.Done {
					t.Fatalf("status %d (%s), trailer %+v; the healthy worker should have served the query", status, msg, tr)
				}
				diffMultisets(t, got, want)
			})
			t.Run(call+"/"+ctName+"/everywhere", func(t *testing.T) {
				mw := textWorker(ct, call)
				tc := bootCluster(t, 2, cluster.Config{MarkerEvery: 16, Backoff: time.Millisecond},
					map[int]middleware{0: mw, 1: mw})
				tc.putDataset(t, "join", rels)
				status, msg, got, tr := tc.coordQuery(t, "join", fullJoin, mode, wire.MediaTypeNDJSON)
				if call == lieProbe {
					// Nothing was streamed yet: an honest gateway error.
					if status != http.StatusBadGateway {
						t.Fatalf("status = %d (%s), want 502", status, msg)
					}
					named(t, msg, tc.workers)
					return
				}
				if status != http.StatusOK || tr == nil {
					t.Fatalf("status %d (%s), trailer %+v", status, msg, tr)
				}
				if tr.Done || tr.Error == "" || tr.Count != 0 || len(got) != 0 {
					t.Fatalf("trailer %+v over %d answers, want done:false with an error and nothing delivered", tr, len(got))
				}
				named(t, tr.Error, tc.workers)
			})
		}
	}
}

// cutStreams aborts every dataset-query stream of a worker once it has
// written more than limit bytes: a binary stream cut before its trailer.
func cutStreams(limit int) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/query") {
				next.ServeHTTP(w, r)
				return
			}
			next.ServeHTTP(&abortWriter{ResponseWriter: w, n: new(atomic.Int64), limit: limit, killed: new(atomic.Bool)}, r)
		})
	}
}

// TestFallbackCutAfterDeliveryEndsInErrorTrailer: once a single-worker
// fallback has delivered answers there is no exact resume point, so a worker
// stream cut before its trailer fails the merge — and the client, on either
// encoding, gets the same record every failed stream ends with: a trailer
// with done:false, the count of what was sent, and the error.
func TestFallbackCutAfterDeliveryEndsInErrorTrailer(t *testing.T) {
	rels := clusterRelations(600, 20, 5)
	mw := cutStreams(2 << 10)
	tc := bootCluster(t, 2, cluster.Config{MarkerEvery: 1}, map[int]middleware{0: mw, 1: mw})
	tc.putDataset(t, "join", rels)
	for _, accept := range []string{wire.MediaTypeNDJSON, wire.MediaTypeBinary} {
		status, msg, got, tr := tc.coordQuery(t, "join", fullJoin, "naive", accept)
		if status != http.StatusOK || tr == nil {
			t.Fatalf("Accept %q: status %d (%s), trailer %+v", accept, status, msg, tr)
		}
		delivered := 0
		for _, n := range got {
			delivered += n
		}
		if tr.Done || tr.Error == "" || tr.Scatter != "single-worker" {
			t.Errorf("Accept %q: trailer = %+v, want done:false with an error on a single-worker stream", accept, tr)
		}
		if tr.Count != delivered || delivered == 0 || delivered >= 600*5 {
			t.Errorf("Accept %q: trailer count %d, %d answers decoded of %d", accept, tr.Count, delivered, 600*5)
		}
	}
}
