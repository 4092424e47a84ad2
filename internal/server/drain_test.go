package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	ucq "repro"
	"repro/internal/database"
	"repro/internal/wire"
)

var encodings = []string{wire.MediaTypeNDJSON, wire.MediaTypeBinary}

// fetch runs one /query request in the given encoding and decodes it.
func fetch(t *testing.T, url, media string, req QueryRequest) ([][]int64, Trailer) {
	t.Helper()
	resp := postAccept(t, url, media, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if media == wire.MediaTypeBinary {
		return readBinaryStream(t, resp)
	}
	return readStream(t, resp)
}

// planSequence is the answer sequence Plan.Iterator yields for the request,
// bound in-process: the order the server's stream must reproduce.
func planSequence(t *testing.T, req QueryRequest) [][]int64 {
	t.Helper()
	inst, err := ucq.InstanceFromRows(req.Relations)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ucq.NewPlan(ucq.MustParse(req.Query), inst, &ucq.PlanOptions{ForceNaive: req.Options.Mode == "naive"})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]int64
	for tup := range plan.All(nil) {
		row := make([]int64, len(tup))
		for i, v := range tup {
			row[i] = int64(v)
		}
		out = append(out, row)
	}
	return out
}

// example2Request draws an Example 2 instance whose union has a few
// thousand answers from overlapping branches.
func example2Request(seed int64, mode string) QueryRequest {
	rng := rand.New(rand.NewSource(seed))
	rels := map[string][][]int64{}
	for _, name := range []string{"R1", "R2", "R3"} {
		for i := 0; i < 200; i++ {
			rels[name] = append(rels[name], []int64{rng.Int63n(30), rng.Int63n(30)})
		}
	}
	return QueryRequest{Query: example2, Relations: rels, Options: QueryOptions{Mode: mode}}
}

// TestStreamKeepsPlanOrder pins that the batch loop hands answers to the
// socket in exactly the plan's order, in both encodings and both modes —
// not merely the same multiset.
func TestStreamKeepsPlanOrder(t *testing.T) {
	_, ts := newTestServer(t)
	for _, mode := range []string{"auto", "naive"} {
		req := example2Request(1, mode)
		want := planSequence(t, req)
		if len(want) < 1000 {
			t.Fatalf("instance too small: %d answers", len(want))
		}
		for _, media := range encodings {
			got, tr := fetch(t, ts.URL, media, req)
			if !tr.Done || tr.Count != len(want) {
				t.Fatalf("%s/%s: trailer %+v, want done and count %d", mode, media, tr, len(want))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s/%s: answer sequence differs from Plan.Iterator's", mode, media)
			}
		}
	}
}

// TestStreamLimitCutsBatch checks limits that fall inside the 1→256
// doubling batches and around the flush boundary: the stream carries
// exactly the plan's first limit answers.
func TestStreamLimitCutsBatch(t *testing.T) {
	_, ts := newTestServer(t)
	for _, mode := range []string{"auto", "naive"} {
		req := example2Request(2, mode)
		want := planSequence(t, req)
		for _, limit := range []int{1, 2, 3, 255, 256, 257} {
			req.Limit = limit
			for _, media := range encodings {
				got, tr := fetch(t, ts.URL, media, req)
				if !tr.Done || tr.Count != limit {
					t.Errorf("%s/%s limit %d: trailer %+v", mode, media, limit, tr)
				}
				if fmt.Sprint(got) != fmt.Sprint(want[:limit]) {
					t.Errorf("%s/%s limit %d: got %d answers, not the plan's first %d", mode, media, limit, len(got), limit)
				}
			}
		}
	}
}

// TestStreamNullaryQuery streams a Boolean query: one empty answer, an
// NDJSON "[]" line or an arity-0 block row.
func TestStreamNullaryQuery(t *testing.T) {
	_, ts := newTestServer(t)
	for _, mode := range []string{"auto", "naive"} {
		req := QueryRequest{Query: "Q() <- R(x).", Relations: map[string][][]int64{"R": {{1}, {2}}}, Options: QueryOptions{Mode: mode}}
		for _, media := range encodings {
			got, tr := fetch(t, ts.URL, media, req)
			if len(got) != 1 || len(got[0]) != 0 || !tr.Done || tr.Count != 1 {
				t.Errorf("%s/%s: answers %v, trailer %+v; want one empty answer", mode, media, got, tr)
			}
		}
	}
}

// errCountingCtx counts Err calls on the request context.
type errCountingCtx struct {
	context.Context
	calls atomic.Int64
}

func (c *errCountingCtx) Err() error {
	c.calls.Add(1)
	return c.Context.Err()
}

// TestStreamChecksContextPerBatch pins the cost model of the drain loop:
// a 10k-answer stream checks the request context O(batches) times, not
// once per answer.
func TestStreamChecksContextPerBatch(t *testing.T) {
	const side, answers = 100, 100 * 100
	s := New()
	body := bigStarRequest(t, side, "auto")
	ctx := &errCountingCtx{Context: context.Background()}
	r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	got, tr := readStream(t, w.Result())
	if len(got) != answers || !tr.Done {
		t.Fatalf("%d answers, trailer %+v; want %d", len(got), tr, answers)
	}
	// Batches double from 1 to 256: 9 to reach full size, then one per 256.
	batches := 9 + answers/256
	if calls := ctx.calls.Load(); calls > int64(4*batches) {
		t.Errorf("request context checked %d times for %d answers in ~%d batches", calls, answers, batches)
	}
}

// discardResponse is a ResponseWriter that drops the body.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestEncodeBatchAllocatesNothing pins that steady-state encoding of a full
// batch, flush included, allocates nothing in either encoding.
func TestEncodeBatchAllocatesNothing(t *testing.T) {
	const arity = 3
	vals := make([]database.Value, 256*arity)
	for i := range vals {
		vals[i] = database.V(int64(i * 7919 % 100003))
	}
	for _, media := range encodings {
		enc, err := newAnswerEncoder(&discardResponse{h: http.Header{}}, media, arity)
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if err := enc.appendBatch(vals, 256); err != nil {
				t.Fatal(err)
			}
			if err := enc.flush(); err != nil {
				t.Fatal(err)
			}
		}
		step() // sizes the buffers
		if n := testing.AllocsPerRun(50, step); n != 0 {
			t.Errorf("%s: %.1f allocations per 256-answer batch, want 0", media, n)
		}
	}
}

// keyedJoin is BenchmarkStream's instance: R(x,z) ⋈ S(z,y) over 100 join
// keys, 20 R rows and 100 S rows per key — 200k answers.
func keyedJoin() map[string][][]int64 {
	rels := map[string][][]int64{}
	for z := int64(0); z < 100; z++ {
		for i := int64(0); i < 20; i++ {
			rels["R"] = append(rels["R"], []int64{z*20 + i, z})
		}
		for i := int64(0); i < 100; i++ {
			rels["S"] = append(rels["S"], []int64{z, z*100 + i})
		}
	}
	return rels
}

// BenchmarkStream measures the encode → socket layer: a bound keyed join
// drained through s.stream into a discarding ResponseWriter, reported per
// answer.
func BenchmarkStream(b *testing.B) {
	inst, err := ucq.InstanceFromRows(keyedJoin())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := ucq.NewPlan(ucq.MustParse("Q(x,z,y) <- R(x,z), S(z,y)."), inst, nil)
	if err != nil {
		b.Fatal(err)
	}
	answers, _ := plan.CountExact()
	open := func(ctx context.Context) answerBatches { return plan.AnswersContext(ctx) }
	meta := streamMeta{arity: 3, mode: plan.Mode.String(), cache: "hit"}
	for _, enc := range []struct{ name, media string }{{"ndjson", wire.MediaTypeNDJSON}, {"binary", wire.MediaTypeBinary}} {
		b.Run(enc.name, func(b *testing.B) {
			s := New()
			r := httptest.NewRequest(http.MethodPost, "/query", nil)
			r.Header.Set("Accept", enc.media)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for range b.N {
				s.stream(&discardResponse{h: http.Header{}}, r, open, meta, 0)
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			total := float64(answers) * float64(b.N)
			if got := s.StatsSnapshot().AnswersStreamed; float64(got) != total {
				b.Fatalf("streamed %d answers, want %.0f", got, total)
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/total, "ns/answer")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/answer")
		})
	}
}
