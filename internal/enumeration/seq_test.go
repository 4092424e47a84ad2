package enumeration

import (
	"testing"

	"repro/internal/database"
)

// closableSlice is a slice iterator recording whether Close was called.
type closableSlice struct {
	*SliceIterator
	closed bool
}

func (c *closableSlice) Close() { c.closed = true }

func tuples(n int) []database.Tuple {
	out := make([]database.Tuple, n)
	for i := range out {
		out[i] = database.Tuple{database.V(int64(i))}
	}
	return out
}

func TestSeqDrainsAndCloses(t *testing.T) {
	it := &closableSlice{SliceIterator: NewSliceIterator(tuples(5))}
	got := 0
	for tup := range Seq(it) {
		if int64(tup[0]) != int64(got) {
			t.Fatalf("tuple %d = %v", got, tup)
		}
		got++
	}
	if got != 5 {
		t.Errorf("ranged over %d tuples, want 5", got)
	}
	if !it.closed {
		t.Error("exhausted sequence did not close its iterator")
	}
}

func TestSeqEarlyBreakCloses(t *testing.T) {
	it := &closableSlice{SliceIterator: NewSliceIterator(tuples(100))}
	got := 0
	for range Seq(it) {
		got++
		if got == 3 {
			break
		}
	}
	if got != 3 {
		t.Errorf("ranged over %d tuples, want 3", got)
	}
	if !it.closed {
		t.Error("early break did not close the iterator")
	}
}
