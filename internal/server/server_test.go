package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	ucq "repro"
	"repro/internal/database"
	"repro/internal/wire"
)

// example2 is the paper's tractable union (Example 2).
const example2 = `
	Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
	Q2(x,y,w) <- R1(x,y), R2(y,w).
`

// smallRelations is a tiny instance for example2 with 6 answers.
func smallRelations() map[string][][]int64 {
	return map[string][][]int64{
		"R1": {{1, 2}, {4, 2}},
		"R2": {{2, 3}},
		"R3": {{3, 5}, {3, 6}},
	}
}

// post sends a QueryRequest and returns the response.
func post(t *testing.T, url string, req QueryRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream consumes an NDJSON response body: answer lines then the
// trailer object.
func readStream(t *testing.T, resp *http.Response) ([][]int64, Trailer) {
	t.Helper()
	defer resp.Body.Close()
	var answers [][]int64
	var tr Trailer
	sawTrailer := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if sawTrailer {
			t.Fatalf("line after trailer: %s", line)
		}
		if strings.HasPrefix(line, "{") {
			if err := json.Unmarshal([]byte(line), &tr); err != nil {
				t.Fatalf("trailer %q: %v", line, err)
			}
			sawTrailer = true
			continue
		}
		var row []int64
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("answer %q: %v", line, err)
		}
		answers = append(answers, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawTrailer {
		t.Fatal("stream ended without a trailer")
	}
	return answers, tr
}

func sortRows(rows [][]int64) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
}

// newTestServer serves a New server over httptest. tune, if given, runs
// before the listener starts: it is where a test swaps in tighter
// admission gates.
func newTestServer(t *testing.T, tune ...func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	for _, f := range tune {
		f(s)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestQueryStreamsAnswers(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts.URL, QueryRequest{Query: example2, Relations: smallRelations()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Ucq-Mode"); got != "constant-delay" {
		t.Errorf("X-Ucq-Mode = %q", got)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", got)
	}
	answers, tr := readStream(t, resp)
	want := [][]int64{{1, 2, 3}, {1, 3, 5}, {1, 3, 6}, {4, 2, 3}, {4, 3, 5}, {4, 3, 6}}
	sortRows(answers)
	if fmt.Sprint(answers) != fmt.Sprint(want) {
		t.Errorf("answers = %v, want %v", answers, want)
	}
	if !tr.Done || tr.Count != 6 || tr.Mode != "constant-delay" || tr.Cache != "miss" {
		t.Errorf("trailer = %+v", tr)
	}
}

// TestPlanCacheHitOnSecondRequest is acceptance criterion (a): the second
// request with the same (query, schema) is served from the plan cache —
// the hit counter increments and no second preparation runs.
func TestPlanCacheHitOnSecondRequest(t *testing.T) {
	s, ts := newTestServer(t)

	resp := post(t, ts.URL, QueryRequest{Query: example2, Relations: smallRelations()})
	_, tr := readStream(t, resp)
	if tr.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", tr.Cache)
	}
	st := s.StatsSnapshot()
	if st.Cache.Misses != 1 || st.Cache.Hits != 0 || st.PlansPrepared != 1 {
		t.Fatalf("after first request: %+v", st.Cache)
	}

	// Same rules, different whitespace and punctuation, different data:
	// normalization must land on the same cache entry, and the bind must
	// still be per-instance.
	resp = post(t, ts.URL, QueryRequest{
		Query: "Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w). # comment\nQ2(x,y,w) :- R1(x,y), R2(y,w)",
		Relations: map[string][][]int64{
			"R1": {{7, 8}},
			"R2": {{8, 9}},
			"R3": {{9, 1}},
		},
	})
	answers, tr := readStream(t, resp)
	if tr.Cache != "hit" {
		t.Fatalf("second request cache = %q, want hit", tr.Cache)
	}
	if tr.Count != 2 {
		t.Errorf("second request count = %d, want 2", tr.Count)
	}
	sortRows(answers)
	if fmt.Sprint(answers) != fmt.Sprint([][]int64{{7, 8, 9}, {7, 9, 1}}) {
		t.Errorf("second request answers = %v", answers)
	}

	st = s.StatsSnapshot()
	if st.Cache.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Cache.Hits)
	}
	if st.Cache.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Cache.Misses)
	}
	if st.PlansPrepared != 1 {
		t.Errorf("plans prepared = %d, want 1 (second request must not replan)", st.PlansPrepared)
	}
}

// TestStreamingFirstAnswerBeforeCompletion is acceptance criterion (b): on
// a large instance the client reads the first NDJSON answer while the
// server is still enumerating — the response is not materialized first.
// The full result (~17 MB) far exceeds any socket buffering, so the
// handler cannot have finished when the first line arrives.
func TestStreamingFirstAnswerBeforeCompletion(t *testing.T) {
	s, ts := newTestServer(t)

	// Full star join: R(x,z) ⋈ S(z,y) with 1000 × 1000 rows sharing one
	// join value → 10^6 answers. Q is full, hence free-connex: certified
	// constant-delay enumeration, streamed as produced.
	const side = 1000
	rels := map[string][][]int64{"R": {}, "S": {}}
	for i := int64(0); i < side; i++ {
		rels["R"] = append(rels["R"], []int64{i, 0})
		rels["S"] = append(rels["S"], []int64{0, i})
	}
	req := QueryRequest{Query: "Q(x,z,y) <- R(x,z), S(z,y).", Relations: rels}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	br := bufio.NewReader(resp.Body)
	firstLine, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var row []int64
	if err := json.Unmarshal([]byte(firstLine), &row); err != nil {
		t.Fatalf("first line %q is not an answer: %v", firstLine, err)
	}

	// The first answer is in hand; enumeration of the full result must
	// still be in flight server-side.
	if done := s.stats.streamsCompleted.Load(); done != 0 {
		t.Fatalf("server finished streaming before the client read the first answer (streams completed = %d)", done)
	}

	// Drain the rest and check nothing was lost.
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
	if count != side*side {
		t.Errorf("streamed %d answers, want %d", count, side*side)
	}
	if !tr.Done || tr.Count != side*side {
		t.Errorf("trailer = %+v", tr)
	}
	if done := s.stats.streamsCompleted.Load(); done != 1 {
		t.Errorf("streams completed = %d, want 1", done)
	}
}

func TestEngineVariantsAgree(t *testing.T) {
	_, ts := newTestServer(t)
	var want [][]int64
	for i, opts := range []QueryOptions{
		{},
		{Mode: "naive"},
		{Mode: "auto"},
	} {
		resp := post(t, ts.URL, QueryRequest{Query: example2, Relations: smallRelations(), Options: opts})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("options %+v: status %d", opts, resp.StatusCode)
		}
		answers, tr := readStream(t, resp)
		sortRows(answers)
		if i == 0 {
			want = answers
			continue
		}
		if fmt.Sprint(answers) != fmt.Sprint(want) {
			t.Errorf("options %+v: answers %v, want %v", opts, answers, want)
		}
		if tr.Count != len(want) {
			t.Errorf("options %+v: count %d", opts, tr.Count)
		}
	}
}

func TestLimitTruncatesStream(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts.URL, QueryRequest{Query: example2, Relations: smallRelations(), Limit: 2})
	answers, tr := readStream(t, resp)
	if len(answers) != 2 || tr.Count != 2 {
		t.Errorf("limit 2: %d answers, trailer %+v", len(answers), tr)
	}
}

func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t)
	cases := []struct {
		name string
		body string
		want string
	}{
		{"malformed json", `{"query": `, "decoding request"},
		{"parse error", `{"query": "Q(x <- R(x)", "relations": {"R": [[1]]}}`, "parsing query"},
		{"bad mode", `{"query": "Q(x) <- R(x).", "relations": {"R": [[1]]}, "options": {"mode": "warp"}}`, "options.mode"},
		{"trailing data", `{"query": "Q(x) <- R(x).", "relations": {"R": [[1]]}} {"query": "garbage"`, "data after the JSON body"},
		{"negative limit", `{"query": "Q(x) <- R(x).", "relations": {"R": [[1]]}, "limit": -1}`, "limit"},
		{"ragged rows", `{"query": "Q(x) <- R(x).", "relations": {"R": [[1], [2,3]]}}`, "expected 1"},
		{"missing relation", `{"query": "Q(x) <- R(x).", "relations": {}}`, "no relation"},
		{"arity mismatch", `{"query": "Q(x) <- R(x).", "relations": {"R": [[1,2]]}}`, "arity"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s: decoding error body: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(er.Error, tc.want) {
			t.Errorf("%s: error %q, want containing %q", tc.name, er.Error, tc.want)
		}
	}
	if st := s.StatsSnapshot(); st.Errors != int64(len(cases)) {
		t.Errorf("errors counter = %d, want %d", st.Errors, len(cases))
	}
}

// TestRemovedOptionsRejected: the execution options this server no longer
// has must fail loudly with a 400 naming the field on every endpoint that
// takes query options — never be silently ignored.
func TestRemovedOptionsRejected(t *testing.T) {
	s, ts := newTestServer(t)
	putDataset(t, ts.URL, "d", smallRelations())
	fields := map[string]string{"parallel": "true", "batch": "16", "shards": "4", "workers": "2"}
	paths := []string{"/query", "/datasets/d/query", "/datasets/d/subscribe"}
	for _, path := range paths {
		for field, val := range fields {
			body := fmt.Sprintf(`{"query": %q, "options": {%q: %s}}`, example2, field, val)
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var er ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("%s %s: decoding error body: %v", path, field, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, `"`+field+`"`) {
				t.Errorf("%s with %s: status %d, error %q; want 400 naming the field", path, field, resp.StatusCode, er.Error)
			}
		}
	}
	if st := s.StatsSnapshot(); st.Errors != int64(len(paths)*len(fields)) {
		t.Errorf("errors counter = %d, want %d", st.Errors, len(paths)*len(fields))
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		resp := post(t, ts.URL, QueryRequest{Query: example2, Relations: smallRelations()})
		readStream(t, resp)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 3 || snap.AnswersStreamed != 18 || snap.StreamsCompleted != 3 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.Cache.Hits != 2 || snap.Cache.Misses != 1 {
		t.Errorf("cache = %+v", snap.Cache)
	}
	if snap.Delays.Window != 3 {
		t.Errorf("delay window = %d, want 3", snap.Delays.Window)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d, want 405", resp.StatusCode)
	}
}

// failingAnswers yields k answers and then ends with an error, the shape of
// a producer that dies mid-stream.
type failingAnswers struct {
	k, n int
	err  error
}

func (f *failingAnswers) Next() (ucq.Tuple, bool) {
	if f.n >= f.k {
		return nil, false
	}
	f.n++
	return ucq.Tuple{database.V(int64(f.n)), database.V(0)}, true
}

func (f *failingAnswers) Err() error {
	if f.n >= f.k {
		return f.err
	}
	return nil
}

// TestStreamFailsLoudly pins the loud-failure contract in both encodings:
// a stream whose iterator reports an error after k answers ends with a
// done:false trailer carrying the count and the error, and /stats counts
// an error, not a completed stream.
func TestStreamFailsLoudly(t *testing.T) {
	const k = 3
	for _, media := range []string{wire.MediaTypeNDJSON, wire.MediaTypeBinary} {
		t.Run(media, func(t *testing.T) {
			s := New()
			before := s.StatsSnapshot()
			r := httptest.NewRequest(http.MethodPost, "/query", nil)
			r.Header.Set("Accept", media)
			w := httptest.NewRecorder()
			open := func(context.Context) ucq.Answers {
				return &failingAnswers{k: k, err: errors.New("producer lost")}
			}
			s.stream(w, r, open, streamMeta{arity: 2, mode: "constant-delay", cache: "miss"}, 0)

			resp := w.Result()
			if got := resp.Header.Get("Content-Type"); got != media {
				t.Fatalf("Content-Type = %q, want %q", got, media)
			}
			var answers [][]int64
			var tr Trailer
			if media == wire.MediaTypeBinary {
				answers, tr = readBinaryStream(t, resp)
			} else {
				answers, tr = readStream(t, resp)
			}
			if len(answers) != k {
				t.Errorf("%d answers before the trailer, want %d", len(answers), k)
			}
			if tr.Done || tr.Count != k || !strings.Contains(tr.Error, "producer lost") {
				t.Errorf("trailer = %+v, want done:false, count %d and the error", tr, k)
			}
			after := s.StatsSnapshot()
			if d := after.Errors - before.Errors; d != 1 {
				t.Errorf("errors went up by %d, want 1", d)
			}
			if after.StreamsCompleted != before.StreamsCompleted {
				t.Errorf("streams_completed %d -> %d, want unchanged", before.StreamsCompleted, after.StreamsCompleted)
			}
		})
	}
}
