package ucq

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/enumeration"
	"repro/internal/workload"
)

// waitGoroutines polls until the process goroutine count settles back to
// the baseline (small slack for runtime/test helpers), failing after a
// generous deadline. Polling instead of a fixed sleep keeps the test fast
// when teardown is prompt and robust when the scheduler is slow.
func waitGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s leaked goroutines: %d now vs %d at baseline", what, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGoroutineHygieneCancelledEnumerations is the leak-regression test
// for abandoned streams: N enumerations abandoned through CloseAnswers or
// through a cancelled bind context must leave the goroutine count where it
// started, and no enumeration keeps running past cancellation.
func TestGoroutineHygieneCancelledEnumerations(t *testing.T) {
	u := MustParse("Q(x,y,w) <- R1(x,y), R2(y,w).")
	// Enough answers (~114k) that an abandoned stream is genuinely
	// mid-enumeration when released.
	inst := workload.SkewedJoin(2000, 50, 20, 40, 3, 7)
	pq, err := Prepare(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Mode != ConstantDelay {
		t.Fatal("leak test query must certify constant-delay")
	}
	baseline := runtime.NumGoroutine()

	for round := 0; round < 20; round++ {
		// Abandon-then-Close: pull a few answers and release explicitly.
		p, err := pq.Bind(inst)
		if err != nil {
			t.Fatal(err)
		}
		it := p.Iterator()
		for j := 0; j < 3; j++ {
			if _, ok := it.Next(); !ok {
				t.Fatal("stream ended before the abandonment point")
			}
		}
		CloseAnswers(it)
		// Context cancellation without Close.
		ctx, cancel := context.WithCancel(context.Background())
		p, err = pq.BindContext(ctx, inst)
		if err != nil {
			t.Fatal(err)
		}
		it = p.Iterator()
		if _, ok := it.Next(); !ok {
			t.Fatal("no first answer")
		}
		cancel()
	}
	waitGoroutines(t, baseline, "cancelled enumerations")
}

// TestAnswersContextStartsNoGoroutine pins that a certified stream runs on
// the goroutine calling Next: opening AnswersContext streams and draining
// each halfway, with no CloseAnswers and no cancellation, adds no
// goroutine. (Goroutines other tests left behind may exit meanwhile, so
// the count may drop.)
func TestAnswersContextStartsNoGoroutine(t *testing.T) {
	u := MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`)
	p, err := NewPlan(u, workload.Example2Instance(100, 3, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ConstantDelay {
		t.Fatal("Example 2 must certify constant-delay")
	}
	total := p.Count()
	if total < 2*enumeration.DefaultBatchSize {
		t.Fatalf("Example 2 instance yields only %d answers", total)
	}
	before := runtime.NumGoroutine()
	streams := make([]Answers, 8)
	for i := range streams {
		streams[i] = p.AnswersContext(context.Background())
		for j := 0; j < total/2; j++ {
			if _, ok := streams[i].Next(); !ok {
				t.Fatalf("stream %d ended after %d of %d answers", i, j, total)
			}
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d half-drained streams raised the goroutine count from %d to %d", len(streams), before, after)
	}
	runtime.KeepAlive(streams)
}

// TestCancelledStreamStopsEnumerating pins the second half of the
// contract: a certified stream checks its context once per batch, so after
// cancellation it ends within one batch — it does not keep producing the
// answer set — without an error and without leaving a goroutine behind.
func TestCancelledStreamStopsEnumerating(t *testing.T) {
	u := MustParse("Q(x,z,y) <- R(x,z), S(z,y).")
	inst := NewInstance()
	r := NewRelation("R", 2)
	s := NewRelation("S", 2)
	for i := int64(0); i < 1500; i++ {
		r.AppendInts(i, 0)
		s.AppendInts(0, i)
	}
	inst.AddRelation(r)
	inst.AddRelation(s)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	p, err := NewPlan(u, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := p.AnswersContext(ctx)
	if _, ok := it.Next(); !ok {
		t.Fatal("no first answer")
	}
	cancel()
	tail := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		tail++
	}
	if tail > enumeration.DefaultBatchSize {
		t.Errorf("stream produced %d answers after cancellation (of %d total), want at most one batch of %d",
			tail, 1500*1500, enumeration.DefaultBatchSize)
	}
	if err := AnswersErr(it); err != nil {
		t.Errorf("cancellation surfaced as an error: %v", err)
	}
	waitGoroutines(t, baseline, "a cancelled stream")
}
