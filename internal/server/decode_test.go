package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/wire"
)

// shortQueryBody is a request body shaped like the serve-short benchmark's:
// the paper's Example 2 union over three relations of 300 distinct pairs.
func shortQueryBody(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(1))
	rels := map[string][][]int64{}
	for _, name := range []string{"A_0", "B_0", "C_0"} {
		seen := map[[2]int64]bool{}
		for len(rels[name]) < 300 {
			p := [2]int64{rng.Int63n(160), rng.Int63n(160)}
			if !seen[p] {
				seen[p] = true
				rels[name] = append(rels[name], []int64{p[0], p[1]})
			}
		}
	}
	body, err := json.Marshal(map[string]any{
		"query":     "Q1(x,y,w) <- A_0(x,z), B_0(z,y), C_0(y,w).\nQ2(x,y,w) <- A_0(x,y), B_0(y,w).",
		"relations": rels,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeShortQuery decodes a POST /query body into its request and
// instance, as handleQuery does.
func decodeShortQuery(body []byte) error {
	var (
		req  QueryRequest
		rels wire.Relations
	)
	if err := decode(body, func(d *wire.Body) { decodeQueryRequest(d, &req, &rels) }); err != nil {
		return err
	}
	inst, err := rels.Instance()
	if err == nil && inst.TupleCount() != 900 {
		err = fmt.Errorf("decoded %d tuples, want 900", inst.TupleCount())
	}
	return err
}

// TestDecodeRequestAllocs bounds the allocations of decoding a
// serve-short-shaped body into its request and instance: the rows go
// straight into one value column per relation, with no slice per row.
// The reflection decoder took 1 581 allocations on this body.
func TestDecodeRequestAllocs(t *testing.T) {
	body := shortQueryBody(t)
	var err error
	allocs := testing.AllocsPerRun(20, func() { err = decodeShortQuery(body) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 64 {
		t.Errorf("decoding a 3×300-row query body allocates %.0f times, want at most 64", allocs)
	}
}

// BenchmarkDecodeRequest measures decoding a serve-short-shaped POST
// /query body into its request and instance: the request-decode layer of
// an inline query, ahead of parsing and binding.
func BenchmarkDecodeRequest(b *testing.B) {
	body := shortQueryBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if err := decodeShortQuery(body); err != nil {
			b.Fatal(err)
		}
	}
}

// fill is an endless reader of one byte.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestBodyOverCap sends bodies one byte over the cap: each is a 413 that
// bumps the errors counter, whether its length is declared (refused
// before reading) or not (refused by the reader at the cap).
func TestBodyOverCap(t *testing.T) {
	s, ts := newTestServer(t)
	prefix, suffix := `{"query": "`, `"}`
	cases := []struct {
		method, path string
		declared     bool
	}{
		{http.MethodPost, "/query", false},
		{http.MethodPut, "/datasets/d", true},
	}
	for _, tc := range cases {
		body := io.MultiReader(strings.NewReader(prefix),
			io.LimitReader(fill('x'), maxBodyBytes+1-int64(len(prefix)+len(suffix))),
			strings.NewReader(suffix))
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		if tc.declared {
			req.ContentLength = maxBodyBytes + 1
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		var er ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: decoding error body: %v", tc.method, tc.path, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(er.Error, "over the 67108864-byte limit") {
			t.Errorf("%s %s with %d bytes: status %d, error %q; want 413 naming the limit",
				tc.method, tc.path, maxBodyBytes+1, resp.StatusCode, er.Error)
		}
	}
	if st := s.StatsSnapshot(); st.Errors != int64(len(cases)) {
		t.Errorf("errors counter = %d, want %d", st.Errors, len(cases))
	}
}
