package enumeration

import (
	"sort"
	"testing"

	"repro/internal/database"
)

// mkTuples builds n single-column tuples base, base+1, ...
func mkTuples(base, n int) []database.Tuple {
	out := make([]database.Tuple, n)
	for i := range out {
		out[i] = database.Tuple{database.V(int64(base + i))}
	}
	return out
}

// TestParallelUnionDisjoint checks that the merge emits every branch
// answer exactly once and that the returned views stay stable after the
// stream advances past their batch.
func TestParallelUnionDisjoint(t *testing.T) {
	its := []Iterator{
		NewSliceIterator(mkTuples(0, 500)),
		NewSliceIterator(mkTuples(500, 500)),
		NewSliceIterator(mkTuples(1000, 500)),
	}
	u := unionOf(1, its...)
	var got []database.Tuple
	for {
		tup, ok := u.Next()
		if !ok {
			break
		}
		got = append(got, tup)
	}
	if len(got) != 1500 {
		t.Fatalf("disjoint union yielded %d answers, want 1500", len(got))
	}
	vals := make([]int, len(got))
	for i, tup := range got {
		vals[i] = int(tup[0].Payload())
	}
	if !sort.IntsAreSorted(vals) {
		t.Fatal("inline source did not run the tasks in order")
	}
	sort.Ints(vals)
	for i, v := range vals {
		if v != i {
			t.Fatalf("answer set corrupted: sorted[%d] = %d (batch buffer was reused?)", i, v)
		}
	}
}

// TestParallelUnionDisjointNullary covers arity-0 answers: counted, not stored.
func TestParallelUnionDisjointNullary(t *testing.T) {
	its := []Iterator{
		NewSliceIterator([]database.Tuple{{}, {}}),
		NewSliceIterator([]database.Tuple{{}}),
	}
	u := unionOf(0, its...)
	n := 0
	for {
		if _, ok := u.Next(); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("nullary disjoint union yielded %d answers, want 3", n)
	}
}

// TestParallelUnionDisjointClose checks Close ends the stream mid-stream.
func TestParallelUnionDisjointClose(t *testing.T) {
	u := unionOf(1, NewSliceIterator(mkTuples(0, 10000)))
	if _, ok := u.Next(); !ok {
		t.Fatal("expected at least one answer")
	}
	u.Close()
	if _, ok := u.Next(); ok {
		t.Fatal("Next after Close should report exhaustion")
	}
}
