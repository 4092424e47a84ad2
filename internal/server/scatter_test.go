package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// fullJoin is a certified, root-range-partitionable query: the full
// acyclic join keeps every variable in the head, so the single plan's
// answer set splits exactly by root-row ranges.
const fullJoin = "Q(x,z,y) <- R(x,z), S(z,y)."

// joinRelations builds R (nR rows, join column x%zs) and S (zs*perZ
// rows); the full join has nR*perZ answers.
func joinRelations(nR, zs, perZ int) map[string][][]int64 {
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

// putTestDataset registers a dataset over HTTP and returns its info.
func putTestDataset(t *testing.T, url, name string, rels map[string][][]int64) DatasetInfo {
	t.Helper()
	body, _ := json.Marshal(DatasetRequest{Relations: rels})
	req, _ := http.NewRequest(http.MethodPut, url+"/datasets/"+name, bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// scatterStream is one parsed scatter response.
type scatterStream struct {
	status  int
	header  cluster.ScatterHeader
	answers []string // answers rendered as NDJSON lines, in stream order
	// markerAt maps an answer-prefix length to the marker emitted right
	// after it: markerAt[k] = p means "the first k answers cover all root
	// rows < p". Order of emission is preserved in markers.
	markerAt map[int]int
	markers  []int
	trailer  *wire.Trailer
}

// postScatter issues one scatter call — with no Accept header: the hop is
// binary whatever the caller says — and decodes the frame stream. Non-200
// responses return with only status set.
func postScatter(t *testing.T, url, name string, req cluster.ScatterRequest) scatterStream {
	t.Helper()
	resp, err := http.Post(url+"/datasets/"+name+"/scatter", "application/json", bytes.NewReader(req.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := scatterStream{status: resp.StatusCode, markerAt: map[int]int{}}
	if resp.StatusCode != http.StatusOK {
		return out
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.MediaTypeBinary {
		t.Fatalf("scatter Content-Type = %q, want %q", ct, wire.MediaTypeBinary)
	}
	dec := wire.NewDecoder(resp.Body)
	for {
		fr, err := dec.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("decoding scatter frame: %v", err)
		}
		switch fr.Kind {
		case wire.KindHeader:
			if err := json.Unmarshal(fr.Meta, &out.header); err != nil || !out.header.Header {
				t.Fatalf("header meta %q: %v", fr.Meta, err)
			}
		case wire.KindBlock:
			for _, tup := range fr.Tuples {
				out.answers = append(out.answers, string(wire.AppendTupleNDJSON(nil, tup)))
			}
		case wire.KindMarker:
			out.markerAt[len(out.answers)] = int(fr.Marker)
			out.markers = append(out.markers, int(fr.Marker))
		case wire.KindTrailer:
			out.trailer = fr.Trailer
		}
	}
}

func TestScatterFullRangeMatchesDatasetQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putTestDataset(t, ts.URL, "join", joinRelations(60, 6, 4))

	// Reference: the ordinary dataset query path.
	body, _ := json.Marshal(QueryRequest{Query: fullJoin})
	resp, err := http.Post(ts.URL+"/datasets/join/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ref, tr := readStream(t, resp)
	if tr.Count != 60*4 {
		t.Fatalf("reference count = %d", tr.Count)
	}

	st := postScatter(t, ts.URL, "join", cluster.ScatterRequest{Query: fullJoin, RootHi: -1, MarkerEvery: 8})
	if st.status != http.StatusOK {
		t.Fatalf("scatter status = %d", st.status)
	}
	if !st.header.Scatterable || st.header.RootLen <= 0 {
		t.Fatalf("header = %+v", st.header)
	}
	if st.trailer == nil || st.trailer.Count != len(st.answers) || st.trailer.RootDone != st.header.RootLen {
		t.Fatalf("trailer = %+v with %d answers", st.trailer, len(st.answers))
	}
	var got [][]int64
	for _, line := range st.answers {
		var row []int64
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatal(err)
		}
		got = append(got, row)
	}
	sortRows(got)
	sortRows(ref)
	if fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Errorf("scatter answers differ from the dataset query's")
	}
	// Markers must be strictly increasing and within the root domain.
	prev := 0
	for _, m := range st.markers {
		if m <= prev || m > st.header.RootLen {
			t.Fatalf("marker sequence %v out of order for root_len %d", st.markers, st.header.RootLen)
		}
		prev = m
	}
	if len(st.markers) == 0 {
		t.Error("no progress markers in a 240-answer stream with marker_every=8")
	}
}

// TestScatterRangePartition is the scatter contract: ranges partition the
// answer set — concatenating [0,mid) and [mid,root_len) yields exactly
// the full enumeration, no duplicates, no losses, same order.
func TestScatterRangePartition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putTestDataset(t, ts.URL, "join", joinRelations(60, 6, 4))

	full := postScatter(t, ts.URL, "join", cluster.ScatterRequest{Query: fullJoin, RootHi: -1})
	mid := full.header.RootLen / 2
	lowHalf := postScatter(t, ts.URL, "join", cluster.ScatterRequest{Query: fullJoin, RootLo: 0, RootHi: mid})
	highHalf := postScatter(t, ts.URL, "join", cluster.ScatterRequest{Query: fullJoin, RootLo: mid, RootHi: -1})

	merged := append(append([]string{}, lowHalf.answers...), highHalf.answers...)
	if fmt.Sprint(merged) != fmt.Sprint(full.answers) {
		t.Fatalf("range concatenation: %d + %d answers vs %d full",
			len(lowHalf.answers), len(highHalf.answers), len(full.answers))
	}
	if lowHalf.trailer.RootDone != mid || highHalf.trailer.RootDone != full.header.RootLen {
		t.Errorf("trailer root_done = %d, %d", lowHalf.trailer.RootDone, highHalf.trailer.RootDone)
	}
}

// TestScatterResumeFromMarker pins the retry protocol: cutting a stream
// at any marker and re-issuing [marker, hi) reproduces the full stream
// exactly — the coordinator's zero-duplicate, zero-loss recovery.
func TestScatterResumeFromMarker(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putTestDataset(t, ts.URL, "join", joinRelations(60, 6, 4))

	full := postScatter(t, ts.URL, "join", cluster.ScatterRequest{Query: fullJoin, RootHi: -1, MarkerEvery: 1})
	if len(full.markers) < 3 {
		t.Fatalf("only %d markers with marker_every=1", len(full.markers))
	}
	// Resume from every marker, not just one: each is a claimed-exact
	// checkpoint.
	for prefix, m := range full.markerAt {
		resumed := postScatter(t, ts.URL, "join", cluster.ScatterRequest{Query: fullJoin, RootLo: m, RootHi: -1})
		rebuilt := append(append([]string{}, full.answers[:prefix]...), resumed.answers...)
		if fmt.Sprint(rebuilt) != fmt.Sprint(full.answers) {
			t.Fatalf("resume at marker %d (prefix %d): rebuilt %d answers, want %d",
				m, prefix, len(rebuilt), len(full.answers))
		}
	}
}

func TestScatterProbeAndFallbackHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := putTestDataset(t, ts.URL, "join", joinRelations(12, 3, 2))

	probe := postScatter(t, ts.URL, "join", cluster.ScatterRequest{Query: fullJoin, RootHi: -1, Probe: true})
	if probe.trailer != nil || len(probe.answers) != 0 {
		t.Fatalf("probe enumerated: %d answers, trailer %+v", len(probe.answers), probe.trailer)
	}
	if !probe.header.Scatterable || probe.header.DatasetVersion != info.Version || probe.header.Dataset != "join" {
		t.Errorf("probe header = %+v", probe.header)
	}

	// A multi-branch union needs cross-branch dedup: not range-scatterable.
	// (The branches must be incomparable — redundancy removal collapses a
	// contained branch back into a single scatterable plan.)
	putTestDataset(t, ts.URL, "union", smallRelations())
	union := postScatter(t, ts.URL, "union", cluster.ScatterRequest{Query: example2, RootHi: -1})
	if union.header.Scatterable || union.trailer != nil || len(union.answers) != 0 {
		t.Errorf("union scatter = %+v with %d answers", union.header, len(union.answers))
	}

	// Naive mode has no root-range contract either.
	naive := postScatter(t, ts.URL, "join", cluster.ScatterRequest{Query: fullJoin, Mode: "naive", RootHi: -1})
	if naive.header.Scatterable {
		t.Errorf("naive header = %+v", naive.header)
	}
}

func TestScatterVersionGuard(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	info := putTestDataset(t, ts.URL, "join", joinRelations(12, 3, 2))

	matched := postScatter(t, ts.URL, "join", cluster.ScatterRequest{Query: fullJoin, RootHi: -1, Version: info.Version})
	if matched.status != http.StatusOK || matched.trailer == nil {
		t.Fatalf("matching version: status %d, trailer %+v", matched.status, matched.trailer)
	}

	stale := postScatter(t, ts.URL, "join", cluster.ScatterRequest{Query: fullJoin, RootHi: -1, Version: info.Version + 1})
	if stale.status != http.StatusConflict {
		t.Fatalf("stale version: status %d, want 409", stale.status)
	}

	// The guard is off the hot path for the common zero value.
	st := s.StatsSnapshot()
	if st.ScatterRequests != 1 {
		t.Errorf("scatter_requests = %d, want 1 (the 409 never counted)", st.ScatterRequests)
	}
}

func TestScatterRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putTestDataset(t, ts.URL, "join", joinRelations(12, 3, 2))

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/datasets/join/scatter", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(`not json`); got != http.StatusBadRequest {
		t.Errorf("malformed body: %d", got)
	}
	if got := post(`{"query":"Q(x) <- R(x).","root_lo":-1,"root_hi":-1}`); got != http.StatusBadRequest {
		t.Errorf("bad range: %d", got)
	}
	if got := post(`{"query":"Q(x <- R(x).","root_lo":0,"root_hi":-1}`); got != http.StatusBadRequest {
		t.Errorf("unparsable query: %d", got)
	}
	resp, err := http.Post(ts.URL+"/datasets/nope/scatter", "application/json",
		bytes.NewReader((&cluster.ScatterRequest{Query: fullJoin, RootHi: -1}).Encode()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset: %d", resp.StatusCode)
	}
}
