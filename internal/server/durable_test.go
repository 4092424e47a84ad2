package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestServerRestartRecoversDatasets is the end-to-end durability proof: a
// server opened over a data directory, loaded with registered and appended
// datasets, is shut down and reopened — and the new process serves every
// dataset at its exact pre-restart version with the exact pre-restart
// answer set, with the bind cache warming against the recovered snapshots.
func TestServerRestartRecoversDatasets(t *testing.T) {
	dir := t.TempDir()

	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	putDataset(t, ts.URL, "events", smallRelations())
	putDataset(t, ts.URL, "other", map[string][][]int64{"S": {{1}, {2}}})
	// An append bumps events to v2 — the restart must come back at v2, not
	// at the registration snapshot.
	resp := do(t, "PUT", ts.URL+"/datasets/events", DatasetRequest{
		Relations: map[string][][]int64{"R3": {{3, 7}}},
		Append:    true,
	})
	resp.Body.Close()
	want, wantTr := queryDataset(t, ts.URL, "events", QueryRequest{Query: example2})
	sortRows(want)
	if wantTr.DatasetVersion != 2 {
		t.Fatalf("pre-restart version = %d, want 2", wantTr.DatasetVersion)
	}
	// "Restart": shut the first server down — store included — and open a
	// second one over the same directory.
	ts.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopening data dir: %v", err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	got, tr := queryDataset(t, ts2.URL, "events", QueryRequest{Query: example2})
	sortRows(got)
	if tr.DatasetVersion != wantTr.DatasetVersion {
		t.Fatalf("recovered version = %d, want %d", tr.DatasetVersion, wantTr.DatasetVersion)
	}
	if tr.Bind != "miss" {
		t.Fatalf("recovered bind = %q, want miss (fresh generation, fresh cache)", tr.Bind)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered answers = %v, want %v", got, want)
	}
	// The second identical query is served from the warmed bind cache.
	if _, tr := queryDataset(t, ts2.URL, "events", QueryRequest{Query: example2}); tr.Bind != "hit" {
		t.Errorf("second recovered query bind = %q, want hit", tr.Bind)
	}

	st := getStats(t, ts2.URL)
	if st.Storage == nil {
		t.Fatal("/stats has no storage section on a durable server")
	}
	if st.Storage.DataDir != dir || st.Storage.Recovered != 2 || st.Storage.Datasets != 2 {
		t.Errorf("storage stats = %+v, want 2 datasets recovered under %s", st.Storage, dir)
	}
	if len(st.Datasets) != 2 {
		t.Errorf("dataset gauges = %+v, want events and other", st.Datasets)
	}
}

// TestSubscribeResumeAcrossRestart checks a from_version resume survives a
// restart: the reopened server's append log still covers the windows it
// covered before, so each resume opens with exactly the answers the missed
// appends added and a plain marker, with no resync. The window from v3
// starts at the recovered version; the one from v2 reaches behind it.
func TestSubscribeResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	putDataset(t, ts.URL, "live", map[string][][]int64{"R": {{1, 2}}, "S": {{2, 3}}})
	sub := openSub(t, ts.URL, "live", SubscribeRequest{Query: subJoinQuery}, "")
	seen := map[string]bool{}
	collectUntil(t, sub, 1, seen)
	appendRows(t, ts.URL, "live", map[string][][]int64{"R": {{4, 2}}})
	if info := appendRows(t, ts.URL, "live", map[string][][]int64{"S": {{2, 5}}}); info.Version != 3 {
		t.Fatalf("second append installed v%d, want v3", info.Version)
	}
	collectUntil(t, sub, 3, seen)
	sub.close()
	ts.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	appendRows(t, ts2.URL, "live", map[string][][]int64{"R": {{7, 2}}})

	for _, c := range []struct {
		from uint64
		want map[string]bool
	}{
		{3, map[string]bool{"[7 2 3]": true, "[7 2 5]": true}},
		{2, map[string]bool{"[1 2 5]": true, "[4 2 5]": true, "[7 2 3]": true, "[7 2 5]": true}},
	} {
		sub := openSub(t, ts2.URL, "live", SubscribeRequest{Query: subJoinQuery, FromVersion: c.from}, "")
		got, first := map[string]bool{}, subItem{}
		for first = range sub.items {
			if first.tuple == nil {
				break
			}
			got[fmt.Sprint(first.tuple)] = true
		}
		sub.close()
		if first.ev == nil || first.ev.Resync || first.ev.Version != 4 {
			t.Fatalf("resume from v%d: first record after the answers %+v, want a plain v4 marker", c.from, first.ev)
		}
		sameAnswerSet(t, got, c.want, fmt.Sprintf("resume from v%d across restart", c.from))
	}
	if n := getStats(t, ts2.URL).Subscriptions.Resyncs; n != 0 {
		t.Fatalf("stats report %d resyncs, want 0", n)
	}
}

// TestServerRejectsWideRows checks a row wider than wire.MaxArity is
// refused with a 400 before anything is journaled: no dataset appears,
// now or after a restart.
func TestServerRejectsWideRows(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	wide := map[string][][]int64{"W": {make([]int64, wire.MaxArity+1)}}
	resp := do(t, http.MethodPut, ts.URL+"/datasets/wide", DatasetRequest{Relations: wide})
	var er ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, "arity") {
		t.Fatalf("PUT of a %d-wide row: status %d, error %q; want 400 naming the arity", wire.MaxArity+1, resp.StatusCode, er.Error)
	}
	resp = do(t, http.MethodGet, ts.URL+"/datasets/wide", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after the rejected PUT: status %d, want 404", resp.StatusCode)
	}
	ts.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := len(s2.catalog.List()); n != 0 {
		t.Fatalf("%d datasets recovered after the rejected PUT, want none", n)
	}
}
