package ucq

import (
	"context"
	"sync/atomic"
	"testing"
)

// countingCtx reports itself cancelled from the n-th Err() call on — a
// deterministic stand-in for a client that goes away mid-evaluation, which
// lets the test pin exactly where the naive path checks its context.
type countingCtx struct {
	context.Context
	calls    atomic.Int64
	cancelAt int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestNaiveAnswersContextHonorsCancellation is the regression test for the
// naive engine running to completion under a cancelled context: ctx is
// live when the stream is requested but cancels before the second member
// CQ, and the stream must come back empty instead of materializing the
// whole union.
func TestNaiveAnswersContextHonorsCancellation(t *testing.T) {
	u := MustParse(`
		Q1(x,y) <- R(x,y).
		Q2(x,y) <- S(x,y).
	`)
	inst := NewInstance()
	r := NewRelation("R", 2)
	s := NewRelation("S", 2)
	for i := int64(0); i < 50; i++ {
		r.AppendInts(i, i+1)
		s.AppendInts(i+100, i)
	}
	inst.AddRelation(r)
	inst.AddRelation(s)

	plan, err := NewPlan(u, inst, &PlanOptions{ForceNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: an un-cancelled run sees all 100 answers.
	if n := drainCount(plan.AnswersContext(context.Background())); n != 100 {
		t.Fatalf("baseline run: %d answers, want 100", n)
	}

	// Call 1 is AnswersContext's entry check (must pass — the stream
	// starts), call 2 guards the first member CQ, call 3 the second: cancel
	// there, mid-union.
	ctx := &countingCtx{Context: context.Background(), cancelAt: 3}
	if n := drainCount(plan.AnswersContext(ctx)); n != 0 {
		t.Errorf("cancelled mid-union: %d answers, want 0 (empty stream)", n)
	}
	if calls := ctx.calls.Load(); calls < 3 {
		t.Errorf("naive path checked ctx %d times; the per-member check is gone", calls)
	}

	// Already-cancelled contexts still yield the empty stream up front.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if n := drainCount(plan.AnswersContext(done)); n != 0 {
		t.Errorf("pre-cancelled ctx: %d answers, want 0", n)
	}

}

// TestNaiveStreamStopsWithinOneBatch is the regression test for a naive
// stream ignoring its context once evaluation is done: the materialized
// answer relation is served under the same per-batch check as a certified
// stream, so a cancel after the first answer lets at most one more batch
// (256 answers) through.
func TestNaiveStreamStopsWithinOneBatch(t *testing.T) {
	const n = 5000
	inst := NewInstance()
	r := NewRelation("R", 2)
	for i := int64(0); i < n; i++ {
		r.AppendInts(i, i%7)
	}
	inst.AddRelation(r)
	plan, err := NewPlan(MustParse(`Q(x,y) <- R(x,y).`), inst, &PlanOptions{ForceNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainCount(plan.AnswersContext(context.Background())); got != n {
		t.Fatalf("baseline run: %d answers, want %d", got, n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it := plan.AnswersContext(ctx)
	if _, ok := it.Next(); !ok {
		t.Fatal("no first answer")
	}
	cancel()
	if rest := drainCount(it); rest > 256 {
		t.Errorf("%d answers after cancellation, want at most 256", rest)
	}
}

// drainCount exhausts an answer stream and returns its length.
func drainCount(it Answers) int {
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			return n
		}
		n++
	}
}
