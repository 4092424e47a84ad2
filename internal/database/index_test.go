package database

import (
	"math/rand"
	"slices"
	"testing"
)

// randomRelation draws rows over a small domain, so keys repeat and so do
// whole rows.
func randomRelation(rng *rand.Rand, arity, rows int) *Relation {
	r := NewRelation("R", arity)
	vals := make([]Value, arity)
	for i := 0; i < rows; i++ {
		for c := range vals {
			vals[c] = V(int64(rng.Intn(5)))
		}
		r.Append(vals...)
	}
	return r
}

// TestIndexAgainstScan checks the CSR index, entry by entry and probe by
// probe, against a scan of the relation: over bags and known sets (whose
// all-column key table shares the rows), every column subset including
// none, and arity 0.
func TestIndexAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 300; trial++ {
		arity := rng.Intn(4)
		r := randomRelation(rng, arity, rng.Intn(40))
		if trial%2 == 0 {
			r.Dedup()
		}
		var cols []int
		for c := 0; c < arity; c++ {
			if rng.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		if trial%3 == 0 {
			cols = identityCols(arity)
		}
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })

		ix := r.BuildIndex(cols)
		project := func(row Tuple) Tuple {
			key := make(Tuple, len(cols))
			for k, c := range cols {
				key[k] = row[c]
			}
			return key
		}
		scan := func(key Tuple) []int32 {
			var ids []int32
			for i := 0; i < r.Len(); i++ {
				if project(r.Row(i)).Equal(key) {
					ids = append(ids, int32(i))
				}
			}
			return ids
		}
		seen := 0
		for i := 0; i < r.Len(); i++ {
			key := project(r.Row(i))
			want := scan(key)
			if want[0] == int32(i) {
				seen++
			}
			if got := ix.Lookup(key); !slices.Equal(got, want) || !ix.Contains(key) {
				t.Fatalf("trial %d: %v on %v: Lookup(%v) = %v, scan says %v", trial, r.Rows(), cols, key, got, want)
			}
		}
		if ix.keys.Len() != seen {
			t.Fatalf("trial %d: %d keys, scan says %d", trial, ix.keys.Len(), seen)
		}
		for probe := 0; probe < 10; probe++ {
			key := make(Tuple, len(cols))
			for k := range key {
				key[k] = V(int64(rng.Intn(7)))
			}
			want := scan(key)
			if got := ix.Lookup(key); !slices.Equal(got, want) || ix.Contains(key) != (len(want) > 0) {
				t.Fatalf("trial %d: %v on %v: Lookup(%v) = %v, scan says %v", trial, r.Rows(), cols, key, got, want)
			}
		}
		if ix.Contains(make(Tuple, len(cols)+1)) {
			t.Fatalf("trial %d: a key of the wrong width is contained", trial)
		}
	}
}

// TestSemijoinSharesOrSizesExactly: the identical relation back when
// nothing dangles, one exactly sized copy otherwise.
func TestSemijoinSharesOrSizesExactly(t *testing.T) {
	r := NewRelation("R", 2)
	for i := int64(0); i < 100; i++ {
		r.AppendInts(i, i%10)
	}
	all := NewRelation("S", 1)
	some := NewRelation("S", 1)
	for v := int64(0); v < 10; v++ {
		all.AppendInts(v)
		if v%3 == 0 {
			some.AppendInts(v)
		}
	}
	if got := Semijoin(r, []int{1}, all, []int{0}); got != r {
		t.Errorf("nothing dangles, yet Semijoin returned a new relation")
	}
	got := Semijoin(r, []int{1}, some, []int{0})
	if got == r || got.Len() != 40 {
		t.Fatalf("semijoin kept %d rows of %d, want 40", got.Len(), r.Len())
	}
	if cap(got.data) != len(got.data) {
		t.Errorf("survivors sit in an array of capacity %d for %d values", cap(got.data), len(got.data))
	}
	for i := 0; i < got.Len(); i++ {
		if row := got.Row(i); int64(row[1])%3 != 0 || (i > 0 && row[0] <= got.Row(i - 1)[0]) {
			t.Fatalf("row %d = %v: wrong survivor or order not preserved", i, row)
		}
	}
	if got := Semijoin(r, []int{1}, NewRelation("S", 1), []int{0}); got.Len() != 0 || got.Arity() != 2 {
		t.Errorf("semijoin with an empty relation = %v", got)
	}

	nullary := NewRelation("N", 0)
	nullary.Append()
	if got := Semijoin(nullary, nil, all, nil); got != nullary {
		t.Errorf("a nullary relation with a non-empty partner did not survive whole")
	}
	if got := Semijoin(nullary, nil, NewRelation("S", 1), nil); got.Len() != 0 {
		t.Errorf("a nullary relation with an empty partner kept %d rows", got.Len())
	}
}

// TestSemijoinAllocations: beyond its key table a semijoin allocates the
// survivor bitmap, the relation header and one row array, at any size.
func TestSemijoinAllocations(t *testing.T) {
	for _, n := range []int64{100, 100_000} {
		r := NewRelation("R", 2)
		s := NewRelation("S", 2)
		for i := int64(0); i < n; i++ {
			r.AppendInts(i, i+1)
			if i%2 == 0 {
				s.AppendInts(i, i+1)
			}
		}
		for _, cols := range [][]int{{0}, {0, 1}} {
			keys := s.BuildKeySet(cols, nil)
			if got := testing.AllocsPerRun(3, func() { SemijoinKeys(r, cols, keys) }); got > 3 {
				t.Errorf("n=%d cols=%v: SemijoinKeys allocates %.0f times, want at most 3", n, cols, got)
			}
		}
	}
}

// TestDistinctFlagTransitions follows the memoised duplicate-free fact
// through every operation that sets, inherits or resets it.
func TestDistinctFlagTransitions(t *testing.T) {
	state := func(r *Relation) uint32 { return r.distinct.Load() }
	r := NewRelation("R", 2)
	r.AppendInts(1, 2)
	r.AppendInts(3, 4)
	if state(r) != distinctUnknown {
		t.Fatalf("a fresh relation starts %d, want unknown", state(r))
	}
	if !r.IsSet() || state(r) != distinctYes {
		t.Fatalf("IsSet on distinct rows: state %d", state(r))
	}
	if v := r.View(); state(v) != distinctYes || v.Len() != 2 {
		t.Errorf("View does not inherit: state %d", state(v))
	}
	if c := r.Clone(); state(c) != distinctYes {
		t.Errorf("Clone does not inherit: state %d", state(c))
	}
	if f := r.Filter(func(row Tuple) bool { return row[0] == V(1) }); state(f) != distinctYes || f.Len() != 1 {
		t.Errorf("Filter of a set: state %d", state(f))
	}
	keys := NewRelation("S", 1)
	keys.AppendInts(1)
	if s := Semijoin(r, []int{0}, keys, []int{0}); state(s) != distinctYes || s.Len() != 1 {
		t.Errorf("Semijoin of a set: state %d", state(s))
	}

	view := r.View()
	r.AppendInts(1, 2)
	if state(r) != distinctUnknown {
		t.Fatalf("Append did not reset: state %d", state(r))
	}
	if view.Len() != 2 || state(view) != distinctYes {
		t.Errorf("a view taken before the append changed: %v state %d", view, state(view))
	}
	if r.IsSet() || state(r) != distinctNo {
		t.Fatalf("IsSet on a repeated row: state %d", state(r))
	}
	if c := r.Clone(); state(c) != distinctNo {
		t.Errorf("Clone of a bag: state %d", state(c))
	}
	if f := r.Filter(func(Tuple) bool { return true }); state(f) != distinctUnknown {
		t.Errorf("Filter of a bag: state %d, want unknown", state(f))
	}
	if s := Semijoin(r, []int{0}, keys, []int{0}); state(s) != distinctUnknown || s.Len() != 2 {
		t.Errorf("Semijoin of a bag: state %d, want unknown", state(s))
	}
	if p := r.Project("P", []int{1}); state(p) != distinctYes || p.Len() != 2 {
		t.Errorf("Project: %v state %d", p, state(p))
	}

	before := r.data
	r.Dedup()
	if state(r) != distinctYes || r.Len() != 2 {
		t.Errorf("Dedup: %v state %d", r, state(r))
	}
	if len(before) != 6 || before[4] != V(1) || before[5] != V(2) {
		t.Errorf("Dedup rewrote the rows it was given: %v", before)
	}
	after := &r.data[0]
	r.Dedup()
	if &r.data[0] != after {
		t.Errorf("Dedup of a known set moved the rows")
	}

	n := NewRelation("N", 0)
	n.Append()
	if !n.IsSet() {
		t.Errorf("one empty row is a set")
	}
	n.Append()
	if n.IsSet() {
		t.Errorf("two empty rows are not a set")
	}
	marked := NewRelation("M", 1)
	marked.AppendInts(1)
	marked.MarkDistinct()
	if state(marked) != distinctYes {
		t.Errorf("MarkDistinct: state %d", state(marked))
	}
}

// TestViewIsUnaffectedByAppend: appends to the owner land past the view or
// in a fresh array, and never show through it.
func TestViewIsUnaffectedByAppend(t *testing.T) {
	r := NewRelation("R", 1)
	for i := int64(0); i < 5; i++ {
		r.AppendInts(i)
	}
	if cap(r.data) == len(r.data) {
		t.Fatal("the test wants spare capacity behind the rows")
	}
	v := r.View()
	if cap(v.data) != len(v.data) {
		t.Fatalf("view capacity %d exceeds its length %d", cap(v.data), len(v.data))
	}
	for i := int64(100); i < 120; i++ {
		r.AppendInts(i)
	}
	if v.Len() != 5 {
		t.Fatalf("view grew to %d rows", v.Len())
	}
	for i := 0; i < 5; i++ {
		if v.Row(i)[0] != V(int64(i)) {
			t.Errorf("view row %d = %v", i, v.Row(i))
		}
	}
}

// TestSuffixIsTheAppendedRows: a suffix view holds exactly the rows past
// the given length, shares their storage, keeps a set's memo and ignores
// later appends; nullary relations count rows.
func TestSuffixIsTheAppendedRows(t *testing.T) {
	r := NewRelation("R", 2)
	for i := int64(0); i < 5; i++ {
		r.AppendInts(i, -i)
	}
	r.IsSet()
	s := r.Suffix(3)
	if s.Len() != 2 || s.Arity() != 2 || s.Name != "R" || s.distinct.Load() != distinctYes {
		t.Fatalf("suffix %v, want R/2 with 2 rows, a set", s)
	}
	if &s.data[0] != &r.data[6] {
		t.Error("suffix copied the rows")
	}
	r.AppendInts(9, 9)
	if s.Len() != 2 || s.Row(0)[0] != V(3) || s.Row(1)[0] != V(4) {
		t.Errorf("suffix after a later append: %v", s.Rows())
	}
	if e := r.Suffix(r.Len()); e.Len() != 0 {
		t.Errorf("suffix at the end holds %d rows", e.Len())
	}
	n := NewRelation("N", 0)
	if e := n.Suffix(0); e.Len() != 0 {
		t.Errorf("suffix of an empty nullary relation holds %d rows", e.Len())
	}
	n.Append()
	if s := n.Suffix(0); s.Len() != 1 || s.Arity() != 0 {
		t.Errorf("nullary suffix %v, want one empty row", s)
	}
	if s := n.Suffix(1); s.Len() != 0 {
		t.Errorf("nullary suffix past its row holds %d rows", s.Len())
	}
}
