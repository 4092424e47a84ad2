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
// for the executor teardown paths: N abandoned or cancelled enumerations
// across executor pool sizes must leave the goroutine count where it
// started — CloseAnswers and context cancellation both release every
// worker, and no enumeration keeps running past cancellation.
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

	execs := []*PlanOptions{
		{Workers: 1},
		{Workers: 4},
		{Workers: 8},
	}
	baseline := runtime.NumGoroutine()

	for round := 0; round < 20; round++ {
		// Abandon-then-Close: pull a few answers and release explicitly.
		for _, opts := range execs {
			p, err := pq.BindExec(inst, opts)
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
		}
		// Context cancellation without Close: the bind context alone must
		// release the workers.
		ctx, cancel := context.WithCancel(context.Background())
		p, err := pq.BindExecContext(ctx, inst, &PlanOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		it := p.Iterator()
		if _, ok := it.Next(); !ok {
			t.Fatal("no first answer")
		}
		cancel()
	}
	waitGoroutines(t, baseline, "cancelled enumerations")
}

// TestCancelledStreamStopsEnumerating pins the second half of the
// contract, at every source of the merge: a certified stream checks its
// context once per batch, so after cancellation it ends within one batch —
// it does not keep producing the answer set inline, nor out of the
// executor's buffered batches — without an error and without leaving a
// goroutine behind.
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

	for _, opts := range []*PlanOptions{{Workers: 0}, {Workers: 4}} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		p, err := NewPlan(u, inst, opts)
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
			t.Errorf("workers=%d: stream produced %d answers after cancellation (of %d total), want at most one batch of %d",
				opts.Workers, tail, 1500*1500, enumeration.DefaultBatchSize)
		}
		if err := AnswersErr(it); err != nil {
			t.Errorf("workers=%d: cancellation surfaced as an error: %v", opts.Workers, err)
		}
		waitGoroutines(t, baseline, "a cancelled stream")
	}
}
