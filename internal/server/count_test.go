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
	_, ts := newTestServer(t)
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

// TestDatasetCountEndpoint pins counting against a registered dataset,
// which is count_only on POST /datasets/{name}/query: the same bind path
// as a streaming dataset query (bind cache, version pinning), one JSON
// object back.
func TestDatasetCountEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	defer ts.Close()
	putDataset(t, ts.URL, "d", smallRelations())

	countReq := QueryRequest{Query: example2, Options: QueryOptions{CountOnly: true}}
	cr := postCount(t, ts.URL, "/datasets/d/query", countReq)
	if cr.Count != 6 || cr.Dataset != "d" || cr.DatasetVersion != 1 {
		t.Fatalf("count response = %+v, want 6 answers from d v1", cr)
	}
	if cr.Bind != "miss" {
		t.Errorf("first count bind = %q, want miss", cr.Bind)
	}
	// Second identical count serves the bind from cache.
	cr = postCount(t, ts.URL, "/datasets/d/query", countReq)
	if cr.Bind != "hit" || cr.Count != 6 {
		t.Errorf("second count = %+v, want bind=hit count=6", cr)
	}

	// Errors still surface: unknown dataset is a 404.
	resp := do(t, http.MethodPost, ts.URL+"/datasets/nope/query", countReq)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("count on unknown dataset: status %d, want 404", resp.StatusCode)
	}
}

// TestCountOnlyHonoursLimit: a count-only request reports at most limit
// answers, as the stream's trailer and ucq-run -count -limit do — on both
// query endpoints and by both counting methods.
func TestCountOnlyHonoursLimit(t *testing.T) {
	_, ts := newTestServer(t)
	defer ts.Close()
	putDataset(t, ts.URL, "d", smallRelations())

	for _, tc := range []struct {
		name, query, method string
		want                int64 // the full count
	}{
		{"count-answers", "Q(x,y,w) <- R1(x,y), R2(y,w).", "count-answers", 2},
		{"enumerate", example2, "enumerate", 6},
	} {
		for _, path := range []string{"/query", "/datasets/d/query"} {
			req := QueryRequest{Query: tc.query, Options: QueryOptions{CountOnly: true}}
			if path == "/query" {
				req.Relations = smallRelations()
			}
			full := postCount(t, ts.URL, path, req)
			if full.Method != tc.method || full.Count != tc.want {
				t.Fatalf("%s %s: count = %+v, want %d via %s", tc.name, path, full, tc.want, tc.method)
			}
			for _, limit := range []int{1, int(tc.want), int(tc.want) + 5} {
				req.Limit = limit
				cr := postCount(t, ts.URL, path, req)
				if want := min(tc.want, int64(limit)); cr.Count != want || cr.Method != tc.method {
					t.Errorf("%s %s limit %d: count = %+v, want %d via %s", tc.name, path, limit, cr, want, tc.method)
				}
			}
		}
	}
}
