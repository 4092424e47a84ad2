package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// postCount posts to path and decodes the CountResponse.
func postCount(t *testing.T, url, path string, req QueryRequest) CountResponse {
	t.Helper()
	resp := do(t, http.MethodPost, url+path, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		t.Fatalf("POST %s: status %d (%s)", path, resp.StatusCode, er.Error)
	}
	var cr CountResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

// TestCountOnlyQuery pins the count_only wire option on /query: the
// response is a single CountResponse whose count matches the streamed
// answer set, with the counting method reported.
func TestCountOnlyQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	defer ts.Close()

	cr := postCount(t, ts.URL, "/query", QueryRequest{
		Query:     example2,
		Relations: smallRelations(),
		Options:   QueryOptions{CountOnly: true},
	})
	if cr.Count != 6 {
		t.Errorf("count = %d, want 6", cr.Count)
	}
	if cr.Mode != "constant-delay" {
		t.Errorf("mode = %q, want constant-delay", cr.Mode)
	}
	if cr.Method != "count-answers" && cr.Method != "enumerate" {
		t.Errorf("method = %q", cr.Method)
	}

	// A single-branch free-connex query must take the counting-pass route:
	// no enumeration behind the count.
	cr = postCount(t, ts.URL, "/query", QueryRequest{
		Query:     "Q(x,y,w) <- R1(x,y), R2(y,w).",
		Relations: smallRelations(),
		Options:   QueryOptions{CountOnly: true},
	})
	if cr.Method != "count-answers" {
		t.Errorf("single-branch method = %q, want count-answers", cr.Method)
	}
	if cr.Count != 2 {
		t.Errorf("single-branch count = %d, want 2", cr.Count)
	}

	// Naive mode always enumerates to count.
	cr = postCount(t, ts.URL, "/query", QueryRequest{
		Query:     example2,
		Relations: smallRelations(),
		Options:   QueryOptions{Mode: "naive", CountOnly: true},
	})
	if cr.Method != "enumerate" || cr.Count != 6 {
		t.Errorf("naive count = %+v, want 6 via enumerate", cr)
	}
}

// TestDatasetCountEndpoint pins POST /datasets/{name}/count: same bind
// path as a dataset query (bind cache, version pinning), one JSON object
// back.
func TestDatasetCountEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	defer ts.Close()
	putDataset(t, ts.URL, "d", smallRelations())

	cr := postCount(t, ts.URL, "/datasets/d/count", QueryRequest{Query: example2})
	if cr.Count != 6 || cr.Dataset != "d" || cr.DatasetVersion != 1 {
		t.Fatalf("count response = %+v, want 6 answers from d v1", cr)
	}
	if cr.Bind != "miss" {
		t.Errorf("first count bind = %q, want miss", cr.Bind)
	}
	// Second identical count serves the bind from cache.
	cr = postCount(t, ts.URL, "/datasets/d/count", QueryRequest{Query: example2})
	if cr.Bind != "hit" || cr.Count != 6 {
		t.Errorf("second count = %+v, want bind=hit count=6", cr)
	}

	// count_only on the query endpoint behaves identically.
	cr = postCount(t, ts.URL, "/datasets/d/query", QueryRequest{
		Query:   example2,
		Options: QueryOptions{CountOnly: true},
	})
	if cr.Count != 6 || cr.Dataset != "d" {
		t.Errorf("count_only dataset query = %+v", cr)
	}

	// Errors still surface: unknown dataset is a 404.
	resp := do(t, http.MethodPost, ts.URL+"/datasets/nope/count", QueryRequest{Query: example2})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("count on unknown dataset: status %d, want 404", resp.StatusCode)
	}
}

// TestDecisionModeStats pins the /stats decision counters: requests with
// no explicit execution knob run through the cost model and land in
// exactly one decision_modes bucket; explicit requests are not counted.
func TestDecisionModeStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	defer ts.Close()
	putDataset(t, ts.URL, "d", smallRelations())

	st := getStats(t, ts.URL)
	if n := st.DecisionModes["sequential"] + st.DecisionModes["parallel"]; n != 0 {
		t.Fatalf("fresh server has %d decisions", n)
	}

	// Auto (no knobs): counted.
	queryDataset(t, ts.URL, "d", QueryRequest{Query: example2})
	// Explicit workers: not counted.
	queryDataset(t, ts.URL, "d", QueryRequest{Query: example2, Options: QueryOptions{Workers: 2}})
	// Count endpoint binds run through the same decision path.
	postCount(t, ts.URL, "/datasets/d/count", QueryRequest{Query: example2})

	st = getStats(t, ts.URL)
	total := st.DecisionModes["sequential"] + st.DecisionModes["parallel"]
	if total != 2 {
		t.Errorf("decision_modes total = %d (%+v), want 2 (two auto binds, one explicit)", total, st.DecisionModes)
	}
}
