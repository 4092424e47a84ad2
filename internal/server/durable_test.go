package server

import (
	"fmt"
	"net/http/httptest"
	"testing"
)

// newDurableServer is newTestServer over Open: the catalog journals under
// dir and the store is released with the test.
func newDurableServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("closing store: %v", err)
		}
	})
	return s, ts
}

// TestServerRestartRecoversDatasets is the end-to-end durability proof: a
// server opened over a data directory, loaded with registered and appended
// datasets, is shut down and reopened — and the new process serves every
// dataset at its exact pre-restart version with the exact pre-restart
// answer set, with the bind cache warming against the recovered snapshots.
func TestServerRestartRecoversDatasets(t *testing.T) {
	dir := t.TempDir()

	s1, err := Open(Config{DataDir: dir})
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
	s2, err := Open(Config{DataDir: dir})
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
