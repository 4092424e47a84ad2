package ucq_test

// Cross-encoding equivalence arm of the randomized harness: over seeded
// random UCQs and instances, one real HTTP server must stream the
// identical answer set — trailer included — whether the client negotiated
// NDJSON or the binary columnar frames, with both sides decoded by the
// same ucq.DecodeAnswerStream helper clients use; a /subscribe arm does the
// same for ucq.DecodeSubscriptionStream's tuples, markers and error
// trailer. Black-box package: the server imports the root package, so this
// arm cannot live inside it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	ucq "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// instanceRows renders an instance as the request wire shape.
func instanceRows(inst *ucq.Instance) map[string][][]int64 {
	out := map[string][][]int64{}
	for _, name := range inst.Names() {
		rel := inst.Relation(name)
		rows := make([][]int64, 0, rel.Len())
		for _, t := range rel.Rows() {
			row := make([]int64, len(t))
			for i, v := range t {
				row[i] = v.Payload()
			}
			rows = append(rows, row)
		}
		out[name] = rows
	}
	return out
}

// streamOnce runs one query against the server with the given Accept and
// returns the canonically sorted answers, the trailer, and the response
// Content-Type.
func streamOnce(t *testing.T, url, accept, query string, rels map[string][][]int64) ([]string, *ucq.StreamTrailer, string) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"query": query, "relations": rels})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", accept)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d for Accept %q", resp.StatusCode, accept)
	}
	var rows []string
	tr, err := ucq.DecodeAnswerStream(resp.Body, resp.Header.Get("Content-Type"), func(tup ucq.Tuple) bool {
		parts := make([]string, len(tup))
		for i, v := range tup {
			parts[i] = v.String()
		}
		rows = append(rows, strings.Join(parts, ","))
		return true
	})
	if err != nil {
		t.Fatalf("decoding %q stream: %v", accept, err)
	}
	if tr == nil {
		t.Fatalf("%q stream ended without a trailer", accept)
	}
	sort.Strings(rows)
	return rows, tr, resp.Header.Get("Content-Type")
}

// TestCrossEncodingEquivalence: for every random case, the binary and
// NDJSON streams of the same query against the same server must decode to
// identical answer sets and agreeing trailers.
func TestCrossEncodingEquivalence(t *testing.T) {
	const cases = 60
	s := server.New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < cases; i++ {
		u := workload.RandomUCQ(rng)
		rows := 8 + rng.Intn(20)
		width := int64(2 + rng.Intn(5))
		inst := workload.RandomForQuery(u, rows, width, rng.Int63())
		rels := instanceRows(inst)
		query := u.String()

		ndRows, ndTr, ndCT := streamOnce(t, ts.URL, ucq.MediaTypeNDJSON, query, rels)
		binRows, binTr, binCT := streamOnce(t, ts.URL, ucq.MediaTypeBinary, query, rels)

		if ndCT != ucq.MediaTypeNDJSON {
			t.Fatalf("case %d: NDJSON arm got Content-Type %q", i, ndCT)
		}
		if binCT != ucq.MediaTypeBinary {
			t.Fatalf("case %d: binary arm got Content-Type %q", i, binCT)
		}
		if strings.Join(ndRows, "\n") != strings.Join(binRows, "\n") {
			t.Fatalf("case %d: encodings disagree on\n%s\nndjson (%d):\n%s\nbinary (%d):\n%s",
				i, query, len(ndRows), strings.Join(ndRows, "\n"), len(binRows), strings.Join(binRows, "\n"))
		}
		if ndTr.Count != binTr.Count || ndTr.Done != binTr.Done || ndTr.Mode != binTr.Mode {
			t.Fatalf("case %d: trailers disagree: ndjson %+v vs binary %+v", i, ndTr, binTr)
		}
		if ndTr.Count != len(ndRows) {
			t.Fatalf("case %d: trailer count %d but %d answers decoded", i, ndTr.Count, len(ndRows))
		}
	}
	// Size check on a stream big enough that the fixed header/trailer
	// frames don't dominate (the random cases above are tiny — a dozen
	// answers pay ~40 bytes of frame overhead): on real volume the
	// columnar encoding must be the smaller stream.
	big := map[string][][]int64{}
	for i := int64(0); i < 200; i++ {
		big["R"] = append(big["R"], []int64{i, i % 20})
	}
	for z := int64(0); z < 20; z++ {
		for j := int64(0); j < 10; j++ {
			big["S"] = append(big["S"], []int64{z, z*1000 + j})
		}
	}
	const bigJoin = "Q(x,z,y) <- R(x,z), S(z,y)."
	before := s.StatsSnapshot().Wire
	ndRows, _, _ := streamOnce(t, ts.URL, ucq.MediaTypeNDJSON, bigJoin, big)
	mid := s.StatsSnapshot().Wire
	binRows, _, _ := streamOnce(t, ts.URL, ucq.MediaTypeBinary, bigJoin, big)
	after := s.StatsSnapshot().Wire
	if strings.Join(ndRows, "\n") != strings.Join(binRows, "\n") {
		t.Fatalf("big case: encodings disagree (%d vs %d answers)", len(ndRows), len(binRows))
	}
	ndBytes := mid.NDJSONBytes - before.NDJSONBytes
	binBytes := after.BinaryBytes - mid.BinaryBytes
	if binBytes >= ndBytes {
		t.Errorf("big case: binary stream %d bytes ≥ ndjson stream %d bytes for %d answers",
			binBytes, ndBytes, len(ndRows))
	}
	t.Logf("cross-encoding equivalence: %d random cases; big case %d answers, %d binary vs %d ndjson bytes",
		cases, len(ndRows), binBytes, ndBytes)
}

// subscriber is one open /subscribe stream being decoded in the
// background into a transcript: per batch the sorted answers, then the
// marker that closed it, and last the trailer.
type subscriber struct {
	accept     string
	marks      chan ucq.SubscriptionEvent
	done       chan struct{}
	transcript []string // owned by the decoding goroutine until done closes
	trailer    *ucq.StreamTrailer
	err        error
}

func subscribe(t *testing.T, url, accept, query string) *subscriber {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"query": query})
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", accept)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != accept {
		resp.Body.Close()
		t.Fatalf("subscribe with Accept %q: status %d, Content-Type %q", accept, resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	// Every marker is announced on marks; the buffer covers this test's
	// whole script so the decoder never waits for the test to catch up.
	sub := &subscriber{accept: accept, marks: make(chan ucq.SubscriptionEvent, 16), done: make(chan struct{})}
	go func() {
		defer close(sub.done)
		defer resp.Body.Close()
		var batch []string
		sub.trailer, sub.err = ucq.DecodeSubscriptionStream(resp.Body, accept,
			func(tup ucq.Tuple) bool {
				batch = append(batch, string(ucq.AppendTupleJSON(nil, tup)))
				return true
			},
			func(ev ucq.SubscriptionEvent) bool {
				sort.Strings(batch)
				sub.transcript = append(sub.transcript, batch...)
				sub.transcript = append(sub.transcript, fmt.Sprintf("marker %+v", ev))
				batch = nil
				sub.marks <- ev
				return true
			})
		sort.Strings(batch)
		sub.transcript = append(sub.transcript, batch...)
	}()
	return sub
}

// await blocks until the subscriber is complete through version.
func (s *subscriber) await(t *testing.T, version uint64) {
	t.Helper()
	for {
		select {
		case ev := <-s.marks:
			if !ev.Resync && ev.Version >= version {
				return
			}
		case <-s.done:
			t.Fatalf("%q subscription ended before version %d: trailer %+v, err %v", s.accept, version, s.trailer, s.err)
		case <-time.After(30 * time.Second):
			t.Fatalf("%q subscription: no marker for version %d", s.accept, version)
		}
	}
}

// TestCrossEncodingSubscriptionEquivalence walks one subscription per
// encoding through an initial set, an append, a replace (resync) and a drop
// (error trailer), in lockstep, and requires the two decoded transcripts —
// tuples per batch, every marker, the trailer — to be identical.
func TestCrossEncodingSubscriptionEquivalence(t *testing.T) {
	ts := httptest.NewServer(server.New().Handler())
	defer ts.Close()
	put := func(body map[string]any) uint64 {
		t.Helper()
		raw, _ := json.Marshal(body)
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/datasets/live", bytes.NewReader(raw))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info struct {
			Version uint64 `json:"version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT: status %d, %v", resp.StatusCode, err)
		}
		return info.Version
	}

	version := put(map[string]any{"relations": map[string][][]int64{"R": {{1, 2}, {3, 4}}, "S": {{2, 5}, {4, 6}, {4, 7}}}})
	subs := []*subscriber{
		subscribe(t, ts.URL+"/datasets/live/subscribe", ucq.MediaTypeNDJSON, "Q(x,y,z) <- R(x,y), S(y,z)."),
		subscribe(t, ts.URL+"/datasets/live/subscribe", ucq.MediaTypeBinary, "Q(x,y,z) <- R(x,y), S(y,z)."),
	}
	script := []map[string]any{
		{"append": true, "relations": map[string][][]int64{"R": {{8, 2}}, "S": {{2, 9}}}},
		{"relations": map[string][][]int64{"R": {{7, 8}, {9, 10}}, "S": {{8, 11}, {10, 12}}}}, // replace: resync
	}
	for step := 0; ; step++ {
		for _, sub := range subs {
			sub.await(t, version)
		}
		if step == len(script) {
			break
		}
		version = put(script[step])
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/datasets/live", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, sub := range subs {
		select {
		case <-sub.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%q subscription outlived its dataset", sub.accept)
		}
		if sub.err != nil || sub.trailer == nil {
			t.Fatalf("%q subscription: trailer %+v, err %v", sub.accept, sub.trailer, sub.err)
		}
	}
	nd, bin := subs[0], subs[1]
	if got, want := strings.Join(bin.transcript, "\n"), strings.Join(nd.transcript, "\n"); got != want {
		t.Fatalf("transcripts disagree\nndjson:\n%s\nbinary:\n%s", want, got)
	}
	// The second subscriber found the first one's plan in the cache.
	tr, binTr := *nd.trailer, *bin.trailer
	tr.Cache, binTr.Cache = "", ""
	if tr != binTr {
		t.Fatalf("trailers disagree: ndjson %+v vs binary %+v", nd.trailer, bin.trailer)
	}
	// The script itself: 3 answers, +3 from the append, a resync to the 2 of
	// the replaced dataset, then the drop.
	if tr.Done || !strings.Contains(tr.Error, "dropped") || tr.Count != 3+3+2 || tr.DatasetVersion != version {
		t.Errorf("trailer = %+v, want done:false, a dropped-dataset error, count 8 at version %d", tr, version)
	}
	if want := fmt.Sprintf("marker %+v", ucq.SubscriptionEvent{Version: version, Resync: true}); !strings.Contains(strings.Join(nd.transcript, "\n"), want) {
		t.Errorf("transcript has no %q:\n%s", want, strings.Join(nd.transcript, "\n"))
	}
}
