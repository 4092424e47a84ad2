package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// do sends a JSON request with the given method and returns the response.
func do(t *testing.T, method, url string, body any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// putDataset registers (or replaces) a dataset and returns its info.
func putDataset(t *testing.T, url, name string, rels map[string][][]int64) DatasetInfo {
	t.Helper()
	resp := do(t, http.MethodPut, url+"/datasets/"+name, DatasetRequest{Relations: rels})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /datasets/%s: status %d", name, resp.StatusCode)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// queryDataset posts a query against a dataset and returns the parsed
// stream.
func queryDataset(t *testing.T, url, name string, req QueryRequest) ([][]int64, Trailer) {
	t.Helper()
	resp := do(t, http.MethodPost, url+"/datasets/"+name+"/query", req)
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		t.Fatalf("POST /datasets/%s/query: status %d (%s)", name, resp.StatusCode, er.Error)
	}
	return readStream(t, resp)
}

func getStats(t *testing.T, url string) Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestDatasetLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	info := putDataset(t, ts.URL, "events", smallRelations())
	if info.Name != "events" || info.Version != 1 || info.Rows != 5 || info.Relations != 3 {
		t.Fatalf("PUT response = %+v", info)
	}

	// Replace bumps the version.
	info = putDataset(t, ts.URL, "events", map[string][][]int64{
		"R1": {{1, 2}}, "R2": {{2, 3}}, "R3": {{3, 5}},
	})
	if info.Version != 2 || info.Rows != 3 {
		t.Fatalf("replace response = %+v", info)
	}

	// Append with a version bump.
	resp := do(t, http.MethodPut, ts.URL+"/datasets/events", DatasetRequest{
		Relations: map[string][][]int64{"R3": {{3, 6}}},
		Append:    true,
	})
	var appended DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&appended); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if appended.Version != 3 || appended.Rows != 4 {
		t.Fatalf("append response = %+v", appended)
	}

	// A misspelt append flag must not be read as "replace with these rows":
	// the body is rejected naming the field and the dataset is untouched.
	resp = do(t, http.MethodPut, ts.URL+"/datasets/events", map[string]any{
		"relations": map[string][][]int64{"R3": {{3, 7}}},
		"apend":     true,
	})
	var er ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, "apend") {
		t.Fatalf("misspelt append: status %d, error %q; want 400 naming the field", resp.StatusCode, er.Error)
	}
	resp = do(t, http.MethodGet, ts.URL+"/datasets/events", nil)
	var after DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after != appended {
		t.Fatalf("dataset after the rejected PUT = %+v, want %+v", after, appended)
	}

	// Listing.
	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var list DatasetListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Datasets) != 1 || list.Datasets[0].Version != 3 {
		t.Fatalf("list = %+v", list)
	}

	// Single-dataset info.
	resp = do(t, http.MethodGet, ts.URL+"/datasets/events", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /datasets/events: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Delete, then 404 everywhere.
	resp = do(t, http.MethodDelete, ts.URL+"/datasets/events", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	for _, probe := range []struct{ method, path string }{
		{http.MethodDelete, "/datasets/events"},
		{http.MethodGet, "/datasets/events"},
	} {
		resp = do(t, probe.method, ts.URL+probe.path, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s after delete: status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestDatasetQueryBindCacheHit is the acceptance criterion: the second
// POST /datasets/{name}/query with the same query performs no Theorem 12
// preprocessing — the bind comes from the cache, observed through the
// trailer and the /stats bind-cache counters.
func TestDatasetQueryBindCacheHit(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts.URL, "d", smallRelations())

	answers, tr := queryDataset(t, ts.URL, "d", QueryRequest{Query: example2})
	if tr.Bind != "miss" || tr.Dataset != "d" || tr.DatasetVersion != 1 {
		t.Fatalf("first trailer = %+v, want bind=miss dataset=d v1", tr)
	}
	if tr.Cache != "miss" || tr.Count != 6 {
		t.Fatalf("first trailer = %+v", tr)
	}
	st := getStats(t, ts.URL)
	if st.BindCache.Misses != 1 || st.BindCache.Hits != 0 {
		t.Fatalf("after first query: bind cache = %+v, want 1 miss", st.BindCache)
	}

	// Same query (modulo whitespace), same dataset: plan cache hit AND
	// bind cache hit — the request goes straight to enumeration.
	answers2, tr := queryDataset(t, ts.URL, "d", QueryRequest{
		Query: "Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w). Q2(x,y,w) :- R1(x,y), R2(y,w)",
	})
	if tr.Bind != "hit" || tr.Cache != "hit" {
		t.Fatalf("second trailer = %+v, want bind=hit cache=hit", tr)
	}
	sortRows(answers)
	sortRows(answers2)
	if fmt.Sprint(answers) != fmt.Sprint(answers2) {
		t.Errorf("cached bind changed the answers: %v vs %v", answers, answers2)
	}

	st = getStats(t, ts.URL)
	if st.BindCache.Misses != 1 {
		t.Errorf("bind cache misses = %d after two identical queries, want 1 (no second preprocessing)", st.BindCache.Misses)
	}
	if st.BindCache.Hits != 1 {
		t.Errorf("bind cache hits = %d, want 1", st.BindCache.Hits)
	}
	if st.PlansPrepared != 1 {
		t.Errorf("plans prepared = %d, want 1", st.PlansPrepared)
	}
	if len(st.Datasets) != 1 || st.Datasets[0].Queries != 2 {
		t.Errorf("dataset gauges = %+v, want d with 2 queries", st.Datasets)
	}

	// Replacing the dataset invalidates the bind: fresh preprocessing on
	// the new snapshot, answers reflect the new data.
	putDataset(t, ts.URL, "d", map[string][][]int64{
		"R1": {{7, 8}}, "R2": {{8, 9}}, "R3": {{9, 1}},
	})
	answers3, tr := queryDataset(t, ts.URL, "d", QueryRequest{Query: example2})
	if tr.Bind != "miss" || tr.DatasetVersion != 2 {
		t.Fatalf("post-replace trailer = %+v, want bind=miss v2", tr)
	}
	sortRows(answers3)
	if fmt.Sprint(answers3) != fmt.Sprint([][]int64{{7, 8, 9}, {7, 9, 1}}) {
		t.Errorf("post-replace answers = %v", answers3)
	}
}

func TestDatasetQueryErrors(t *testing.T) {
	s, ts := newTestServer(t)
	putDataset(t, ts.URL, "d", smallRelations())

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		status int
		want   string
	}{
		{"query missing dataset", http.MethodPost, "/datasets/nope/query",
			QueryRequest{Query: example2}, http.StatusNotFound, "no dataset"},
		{"inline relations rejected", http.MethodPost, "/datasets/d/query",
			QueryRequest{Query: example2, Relations: smallRelations()},
			http.StatusBadRequest, "inline relations"},
		{"bad query", http.MethodPost, "/datasets/d/query",
			QueryRequest{Query: "Q(x <- R(x)"}, http.StatusBadRequest, "parsing query"},
		{"schema mismatch", http.MethodPost, "/datasets/d/query",
			QueryRequest{Query: "Q(x) <- Missing(x)."}, http.StatusBadRequest, "no relation"},
		{"append to missing", http.MethodPut, "/datasets/nope",
			DatasetRequest{Relations: map[string][][]int64{"R": {{1}}}, Append: true},
			http.StatusNotFound, "no dataset"},
		{"ragged rows", http.MethodPut, "/datasets/bad",
			DatasetRequest{Relations: map[string][][]int64{"R": {{1}, {2, 3}}}},
			http.StatusBadRequest, "expected 1"},
	}
	for _, tc := range cases {
		resp := do(t, tc.method, ts.URL+tc.path, tc.body)
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s: decoding error body: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if !strings.Contains(er.Error, tc.want) {
			t.Errorf("%s: error %q, want containing %q", tc.name, er.Error, tc.want)
		}
	}
	if st := s.StatsSnapshot(); st.Errors != int64(len(cases)) {
		t.Errorf("errors counter = %d, want %d", st.Errors, len(cases))
	}
}

// TestDatasetReplaceDoesNotDisturbInFlightStream is the lifecycle-race
// regression (run under -race in CI): a stream started on snapshot v1
// must finish on v1 — with v1's exact answer count — even when the
// dataset is replaced mid-stream.
func TestDatasetReplaceDoesNotDisturbInFlightStream(t *testing.T) {
	s, ts := newTestServer(t)

	// v1: full star join with 300×300 rows → 90 000 answers, enough to
	// outlive several replaces.
	const side = 300
	mk := func(n int) map[string][][]int64 {
		rels := map[string][][]int64{"R": {}, "S": {}}
		for i := int64(0); i < int64(n); i++ {
			rels["R"] = append(rels["R"], []int64{i, 0})
			rels["S"] = append(rels["S"], []int64{0, i})
		}
		return rels
	}
	putDataset(t, ts.URL, "d", mk(side))

	req := QueryRequest{Query: "Q(x,z,y) <- R(x,z), S(z,y)."}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/datasets/d/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the first answer, then hammer the dataset with replaces while
	// draining the rest of the stream.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			putDataset(t, ts.URL, "d", mk(2)) // 4-answer instances
		}
	}()

	count := 1
	var tr Trailer
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			if err := json.Unmarshal([]byte(line), &tr); err != nil {
				t.Fatal(err)
			}
			break
		}
		count++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if count != side*side {
		t.Errorf("stream crossed snapshots: %d answers, want %d", count, side*side)
	}
	if tr.DatasetVersion != 1 {
		t.Errorf("trailer version = %d, want 1 (the snapshot the stream started on)", tr.DatasetVersion)
	}
	if !tr.Done || tr.Count != side*side {
		t.Errorf("trailer = %+v", tr)
	}
	// The dataset itself has moved on.
	if st := s.StatsSnapshot(); len(st.Datasets) != 1 || st.Datasets[0].Version != 6 {
		t.Errorf("dataset gauges = %+v, want version 6 after 5 replaces", st.Datasets)
	}
}

// TestLegacyQueryUnchangedByDatasets pins that the inline-instance /query
// path neither touches the bind cache nor gains trailer fields.
func TestLegacyQueryUnchangedByDatasets(t *testing.T) {
	_, ts := newTestServer(t)
	putDataset(t, ts.URL, "d", smallRelations())

	resp := post(t, ts.URL, QueryRequest{Query: example2, Relations: smallRelations()})
	if got := resp.Header.Get("X-Ucq-Bind"); got != "" {
		t.Errorf("legacy /query has X-Ucq-Bind = %q, want unset", got)
	}
	// Raw trailer line must not mention datasets or binds.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var last string
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	resp.Body.Close()
	for _, field := range []string{"dataset", "bind"} {
		if strings.Contains(last, field) {
			t.Errorf("legacy trailer %q mentions %q", last, field)
		}
	}
	st := getStats(t, ts.URL)
	if st.BindCache.Hits+st.BindCache.Misses != 0 {
		t.Errorf("legacy /query touched the bind cache: %+v", st.BindCache)
	}
}
