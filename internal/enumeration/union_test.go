package enumeration

import (
	"context"
	"testing"

	"repro/internal/database"
)

// exhaustibleTestable claims membership of everything but yields nothing —
// the mismatched-Contains condition behind Algorithm 1's defensive branch.
type exhaustibleTestable struct{ *SliceIterator }

func (e exhaustibleTestable) Contains(database.Tuple) bool { return true }

func TestAlgorithmOneSkippedObservable(t *testing.T) {
	a := NewAlgorithmOne(
		NewSliceIterator([]database.Tuple{tup(1), tup(2)}),
		exhaustibleTestable{NewSliceIterator(nil)},
	)
	if got := Collect(a); len(got) != 0 {
		t.Fatalf("union = %v, want empty", got)
	}
	// Both Q1 answers hit the defensive path: Contains said "in Q2" but Q2
	// had nothing left to pay with. Silent before; observable now.
	if a.Skipped() != 2 {
		t.Fatalf("Skipped = %d, want 2", a.Skipped())
	}

	// A well-matched Testable never trips the branch.
	ok := NewAlgorithmOne(
		NewSliceIterator([]database.Tuple{tup(1)}),
		newFakeTestable([]database.Tuple{tup(2)}),
	)
	Collect(ok)
	if ok.Skipped() != 0 {
		t.Fatalf("Skipped = %d, want 0", ok.Skipped())
	}
}

func TestMeasureDelaysEdgeCases(t *testing.T) {
	empty := MeasureDelays(func() Iterator { return NewSliceIterator(nil) })
	if empty.Count != 0 {
		t.Errorf("empty count = %d", empty.Count)
	}
	if empty.Preprocessing <= 0 || empty.Total < empty.Preprocessing {
		t.Errorf("empty timings: %+v", empty)
	}
	if empty.MaxDelay != 0 || empty.MeanDelay != 0 || empty.P50 != 0 || empty.P95 != 0 || empty.P99 != 0 {
		t.Errorf("empty stream has delay stats: %+v", empty)
	}

	single := MeasureDelays(func() Iterator {
		return NewSliceIterator([]database.Tuple{tup(42)})
	})
	if single.Count != 1 {
		t.Errorf("single count = %d", single.Count)
	}
	// One answer means zero inter-answer gaps: all delay stats stay zero.
	if single.MaxDelay != 0 || single.MeanDelay != 0 || single.P50 != 0 {
		t.Errorf("single answer has inter-answer delays: %+v", single)
	}
	if single.Preprocessing <= 0 || single.Total < single.Preprocessing {
		t.Errorf("single timings: %+v", single)
	}
}

func TestUnionAllZeroAndOneBranch(t *testing.T) {
	if got := Collect(unionOf(1)); len(got) != 0 {
		t.Errorf("zero-branch union = %v", got)
	}
	got := Collect(unionOf(1, NewSliceIterator([]database.Tuple{tup(3), tup(1)})))
	if len(got) != 2 || !got[0].Equal(tup(3)) || !got[1].Equal(tup(1)) {
		t.Errorf("one-branch union = %v", got)
	}
}

func TestNextBatchFallbackAndFastPaths(t *testing.T) {
	// Func is no task of its own: TaskOf's fallback copies tuples out of a
	// reused buffer, so batches own their data.
	buf := tup(0)
	n := int64(0)
	inner := Func(func() (database.Tuple, bool) {
		if n >= 5 {
			return nil, false
		}
		n++
		buf[0] = database.V(n)
		return buf, true
	})
	task := TaskOf(inner)
	vals, got := task.NextBatch(nil, 3)
	if got != 3 || len(vals) != 3 {
		t.Fatalf("fallback batch = %v (%d)", vals, got)
	}
	if vals[0] != database.V(1) || vals[2] != database.V(3) {
		t.Fatalf("fallback aliases the iterator buffer: %v", vals)
	}
	vals, got = task.NextBatch(vals[:0], 10)
	if got != 2 || vals[1] != database.V(5) {
		t.Fatalf("tail batch = %v (%d)", vals, got)
	}

	// A SliceIterator is its own task and batches without the fallback.
	sl := NewSliceIterator([]database.Tuple{tup(1, 10), tup(2, 20), tup(3, 30)})
	task = TaskOf(sl)
	if task != Task(sl) {
		t.Fatalf("TaskOf wrapped a SliceIterator: %T", task)
	}
	vals, got = task.NextBatch(nil, 2)
	if got != 2 || len(vals) != 4 || vals[2] != database.V(2) {
		t.Fatalf("slice batch = %v (%d)", vals, got)
	}
	if vals, got = task.NextBatch(vals[:0], 8); got != 1 || vals[1] != database.V(30) {
		t.Fatalf("slice tail batch = %v (%d)", vals, got)
	}
	if _, again := task.NextBatch(nil, 8); again != 0 {
		t.Fatalf("exhausted slice produced %d answers", again)
	}
}

func TestParallelUnionLargeDisjointAndOverlapping(t *testing.T) {
	const branches, per = 8, 500
	var its []Iterator
	for b := 0; b < branches; b++ {
		tuples := make([]database.Tuple, per)
		for i := range tuples {
			tuples[i] = tup(int64(b*per + i))
		}
		its = append(its, NewSliceIterator(tuples))
	}
	u := unionOf(1, its...)
	got := Collect(u)
	want := branches * per
	if len(got) != want {
		t.Fatalf("answers = %d, want %d", len(got), want)
	}
	seen := make(map[string]bool, len(got))
	for _, g := range got {
		if seen[g.Key()] {
			t.Fatalf("duplicate %v", g)
		}
		seen[g.Key()] = true
	}
}

func TestParallelUnionZeroBranchesAndEmptyBranches(t *testing.T) {
	if got := Collect(unionOf(1)); len(got) != 0 {
		t.Errorf("zero-branch union = %v", got)
	}
	got := Collect(unionOf(1, NewSliceIterator(nil), NewSliceIterator(nil)))
	if len(got) != 0 {
		t.Errorf("empty-branch union = %v", got)
	}
}

func TestParallelUnionCloseEarly(t *testing.T) {
	tuples := make([]database.Tuple, 10000)
	for i := range tuples {
		tuples[i] = tup(int64(i))
	}
	u := unionOf(1, NewSliceIterator(tuples[:5000]),
		NewSliceIterator(tuples[5000:]),
	)
	for i := 0; i < 5; i++ {
		if _, ok := u.Next(); !ok {
			t.Fatalf("exhausted after %d answers", i)
		}
	}
	u.Close()
	if _, ok := u.Next(); ok {
		t.Error("Next produced an answer after Close")
	}
	u.Close() // idempotent
}

func TestParallelUnionTuplesAreStable(t *testing.T) {
	// Returned tuples are views into batch buffers and must stay valid
	// after the stream moves on.
	tuples := make([]database.Tuple, 2000)
	for i := range tuples {
		tuples[i] = tup(int64(i), int64(i*7))
	}
	u := unionOf(2, NewSliceIterator(tuples))
	var got []database.Tuple
	for {
		tu, ok := u.Next()
		if !ok {
			break
		}
		got = append(got, tu)
	}
	if len(got) != len(tuples) {
		t.Fatalf("answers = %d", len(got))
	}
	seen := make(map[string]bool, len(got))
	for _, g := range got {
		if int64(g[1]) != int64(g[0])*7 {
			t.Fatalf("corrupted tuple %v", g)
		}
		if seen[g.Key()] {
			t.Fatalf("duplicate %v", g)
		}
		seen[g.Key()] = true
	}
}

// recordingTask yields the n single-column answers base, base+1, … and
// records the batch sizes it was asked for.
type recordingTask struct {
	base, next, n int
	asked         []int
}

func (r *recordingTask) NextBatch(buf []database.Value, max int) ([]database.Value, int) {
	r.asked = append(r.asked, max)
	got := 0
	for got < max && r.next < r.n {
		buf = append(buf, database.V(int64(r.base+r.next)))
		r.next++
		got++
	}
	return buf, got
}

// TestInlineBatchSchedule pins the union's fixed schedule: the
// first batch is a single answer, so the first Next costs one tuple, and
// batches double up to DefaultBatchSize; the schedule carries over from one
// task to the next.
func TestInlineBatchSchedule(t *testing.T) {
	first, second := &recordingTask{n: 700}, &recordingTask{base: 700, n: 300}
	u := NewUnion(context.Background(), 1, []Task{first, second})
	if _, ok := u.Next(); !ok {
		t.Fatal("no first answer")
	}
	if len(first.asked) != 1 || first.asked[0] != 1 || first.next != 1 {
		t.Fatalf("first Next asked for batches %v and produced %d answers, want one answer", first.asked, first.next)
	}
	if n := 1 + len(Collect(u)); n != 1000 {
		t.Fatalf("drained %d answers, want 1000", n)
	}
	want := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 256, 256}
	if len(first.asked) != len(want) {
		t.Fatalf("batch sizes %v, want %v", first.asked, want)
	}
	for i := range want {
		if first.asked[i] != want[i] {
			t.Fatalf("batch sizes %v, want %v", first.asked, want)
		}
	}
	if second.asked[0] != DefaultBatchSize {
		t.Fatalf("second task started at batch size %d", second.asked[0])
	}
}

// TestUnionCancelEndsWithinOneBatch: the union checks the construction
// context once per batch, so after cancellation at most the current batch
// surfaces and the stream just ends.
func TestUnionCancelEndsWithinOneBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	u := NewUnion(ctx, 1, []Task{&recordingTask{n: 1 << 20}})
	for i := 0; i < 1000; i++ {
		if _, ok := u.Next(); !ok {
			t.Fatalf("stream ended after %d answers", i)
		}
	}
	cancel()
	if tail := len(Collect(u)); tail > DefaultBatchSize {
		t.Errorf("%d answers after cancellation, want at most one batch (%d)", tail, DefaultBatchSize)
	}
	u.Close()
}
