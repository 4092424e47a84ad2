package enumeration

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/database"
)

// unionOf builds a Union over plain iterators, one task each.
func unionOf(arity int, its ...Iterator) *Union {
	tasks := make([]Task, len(its))
	for i, it := range its {
		tasks[i] = TaskOf(it)
	}
	return NewUnion(context.Background(), arity, tasks)
}

// NextBatch implements Task: a slice of tuples is its own task, copied out
// without a Next call per tuple.
func (s *SliceIterator) NextBatch(buf []database.Value, max int) ([]database.Value, int) {
	n := 0
	for n < max && s.pos < len(s.tuples) {
		buf = append(buf, s.tuples[s.pos]...)
		s.pos++
		n++
	}
	return buf, n
}

// iterTask adapts a plain iterator to the Task interface. NextBatch copies
// tuple values into buf, so the batch owns its data even when the iterator
// reuses an internal buffer.
type iterTask struct{ it Iterator }

func (t iterTask) NextBatch(buf []database.Value, max int) ([]database.Value, int) {
	n := 0
	for n < max {
		tup, ok := t.it.Next()
		if !ok {
			break
		}
		buf = append(buf, tup...)
		n++
	}
	return buf, n
}

// Close closes the wrapped iterator, so a union nested inside a task is
// closed with the union that runs the task.
func (t iterTask) Close() { CloseIterator(t.it) }

// TaskOf wraps an iterator as a task (iterators that already are tasks,
// like SliceIterator, pass through).
func TaskOf(it Iterator) Task {
	if t, ok := it.(Task); ok {
		return t
	}
	return iterTask{it: it}
}

func tup(vals ...int64) database.Tuple {
	t := make(database.Tuple, len(vals))
	for i, v := range vals {
		t[i] = database.V(v)
	}
	return t
}

func TestSliceIterator(t *testing.T) {
	it := NewSliceIterator([]database.Tuple{tup(1), tup(2)})
	a, ok := it.Next()
	if !ok || !a.Equal(tup(1)) {
		t.Fatalf("first = %v, %v", a, ok)
	}
	b, _ := it.Next()
	if !b.Equal(tup(2)) {
		t.Fatalf("second = %v", b)
	}
	if _, ok := it.Next(); ok {
		t.Errorf("not exhausted")
	}
}

func TestFuncAdapter(t *testing.T) {
	n := 0
	it := Func(func() (database.Tuple, bool) {
		if n >= 2 {
			return nil, false
		}
		n++
		return tup(int64(n)), true
	})
	if got := Collect(it); len(got) != 2 {
		t.Errorf("collect = %v", got)
	}
}

func TestCheaterClonesTuples(t *testing.T) {
	// The inner iterator reuses a buffer; emitted tuples are views into
	// batch buffers, which must be copies of it and never reused.
	buf := tup(0)
	n := int64(0)
	inner := Func(func() (database.Tuple, bool) {
		if n >= 3 {
			return nil, false
		}
		n++
		buf[0] = database.V(n)
		return buf, true
	})
	got := Collect(unionOf(1, inner))
	if got[0][0] != database.V(1) || got[2][0] != database.V(3) {
		t.Errorf("aliasing bug: %v", got)
	}
}

// fakeTestable wraps a slice iterator with a set-based membership test.
type fakeTestable struct {
	*SliceIterator
	set map[string]bool
}

func newFakeTestable(ts []database.Tuple) *fakeTestable {
	set := make(map[string]bool, len(ts))
	for _, t := range ts {
		set[t.Key()] = true
	}
	return &fakeTestable{SliceIterator: NewSliceIterator(ts), set: set}
}

func (f *fakeTestable) Contains(t database.Tuple) bool { return f.set[t.Key()] }

func TestAlgorithmOne(t *testing.T) {
	// Q1 = {1,2,3}, Q2 = {2,3,4,5}: union {1..5}, each exactly once.
	q1 := NewSliceIterator([]database.Tuple{tup(1), tup(2), tup(3)})
	q2 := newFakeTestable([]database.Tuple{tup(2), tup(3), tup(4), tup(5)})
	got := Collect(NewAlgorithmOne(q1, q2))
	if len(got) != 5 {
		t.Fatalf("union = %v", got)
	}
	seen := make(map[string]bool)
	for _, g := range got {
		if seen[g.Key()] {
			t.Errorf("duplicate %v", g)
		}
		seen[g.Key()] = true
	}
}

func TestAlgorithmOneDisjointAndContained(t *testing.T) {
	// Disjoint.
	got := Collect(NewAlgorithmOne(
		NewSliceIterator([]database.Tuple{tup(1)}),
		newFakeTestable([]database.Tuple{tup(2)}),
	))
	if len(got) != 2 {
		t.Errorf("disjoint union = %v", got)
	}
	// Q1 ⊆ Q2.
	got = Collect(NewAlgorithmOne(
		NewSliceIterator([]database.Tuple{tup(1), tup(2)}),
		newFakeTestable([]database.Tuple{tup(1), tup(2), tup(3)}),
	))
	if len(got) != 3 {
		t.Errorf("contained union = %v", got)
	}
	// Q1 empty.
	got = Collect(NewAlgorithmOne(
		NewSliceIterator(nil),
		newFakeTestable([]database.Tuple{tup(9)}),
	))
	if len(got) != 1 {
		t.Errorf("empty-q1 union = %v", got)
	}
	// Q2 empty.
	got = Collect(NewAlgorithmOne(
		NewSliceIterator([]database.Tuple{tup(7)}),
		newFakeTestable(nil),
	))
	if len(got) != 1 {
		t.Errorf("empty-q2 union = %v", got)
	}
}

func TestAlgorithmOneQuick(t *testing.T) {
	f := func(av, bv []uint8) bool {
		dedup := func(vals []uint8) []database.Tuple {
			seen := make(map[uint8]bool)
			var out []database.Tuple
			for _, v := range vals {
				v %= 16
				if !seen[v] {
					seen[v] = true
					out = append(out, tup(int64(v)))
				}
			}
			return out
		}
		a := dedup(av)
		b := dedup(bv)
		want := make(map[string]bool)
		for _, t := range a {
			want[t.Key()] = true
		}
		for _, t := range b {
			want[t.Key()] = true
		}
		got := Collect(NewAlgorithmOne(NewSliceIterator(a), newFakeTestable(b)))
		if len(got) != len(want) {
			return false
		}
		seen := make(map[string]bool)
		for _, g := range got {
			if seen[g.Key()] || !want[g.Key()] {
				return false
			}
			seen[g.Key()] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionAll(t *testing.T) {
	got := Collect(unionOf(1,
		NewSliceIterator([]database.Tuple{tup(1), tup(2)}),
		NewSliceIterator([]database.Tuple{tup(3)}),
		NewSliceIterator([]database.Tuple{tup(4), tup(5)}),
	))
	if len(got) != 5 {
		t.Fatalf("union = %v", got)
	}
	for i, g := range got {
		if !g.Equal(tup(int64(i + 1))) {
			t.Errorf("union answer %d = %v, want the tasks in order", i, g)
		}
	}
	single := Collect(unionOf(1, NewSliceIterator([]database.Tuple{tup(1), tup(2)})))
	if len(single) != 2 {
		t.Errorf("single-branch union = %v", single)
	}
}

func TestMeasureDelays(t *testing.T) {
	st := MeasureDelays(func() Iterator {
		return NewSliceIterator([]database.Tuple{tup(1), tup(2), tup(3)})
	})
	if st.Count != 3 {
		t.Errorf("count = %d", st.Count)
	}
	if st.Total <= 0 || st.Preprocessing < 0 {
		t.Errorf("timings: %+v", st)
	}
	empty := MeasureDelays(func() Iterator { return NewSliceIterator(nil) })
	if empty.Count != 0 || empty.Preprocessing <= 0 {
		t.Errorf("empty run: %+v", empty)
	}
}
