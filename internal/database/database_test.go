package database

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueString(t *testing.T) {
	for v, want := range map[Value]string{V(3): "3", V(-1): "-1", V(math.MinInt64): "-9223372036854775808", V(math.MaxInt64): "9223372036854775807"} {
		if got := v.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestTupleBasics(t *testing.T) {
	a := Tuple{V(1), V(2)}
	b := a.Clone()
	b[0] = V(9)
	if a[0] != V(1) {
		t.Errorf("clone aliases")
	}
	if !a.Equal(Tuple{V(1), V(2)}) || a.Equal(Tuple{V(1)}) || a.Equal(Tuple{V(1), V(3)}) {
		t.Errorf("Equal wrong")
	}
	if !a.Less(Tuple{V(1), V(3)}) || a.Less(Tuple{V(1), V(2)}) {
		t.Errorf("Less wrong")
	}
	if !(Tuple{V(1)}).Less(Tuple{V(1), V(0)}) {
		t.Errorf("prefix Less wrong")
	}
	if a.String() != "(1,2)" {
		t.Errorf("String = %q", a.String())
	}
	if a.Key() == (Tuple{V(1), V(3)}).Key() {
		t.Errorf("keys collide")
	}
}

func TestRelationAppendRowLen(t *testing.T) {
	r := NewRelation("R", 2)
	r.AppendInts(1, 2)
	r.Append(V(3), V(4))
	if r.Len() != 2 || r.Arity() != 2 {
		t.Fatalf("len=%d arity=%d", r.Len(), r.Arity())
	}
	if !r.Row(1).Equal(Tuple{V(3), V(4)}) {
		t.Errorf("row 1 = %v", r.Row(1))
	}
	rows := r.Rows()
	if len(rows) != 2 || !rows[0].Equal(Tuple{V(1), V(2)}) {
		t.Errorf("rows = %v", rows)
	}
}

func TestRelationAppendArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic on arity mismatch")
		}
	}()
	NewRelation("R", 2).AppendInts(1)
}

func TestRelationDedupAndSorted(t *testing.T) {
	r := NewRelation("R", 2)
	r.AppendInts(2, 2)
	r.AppendInts(1, 1)
	r.AppendInts(2, 2)
	r.Dedup()
	if r.Len() != 2 {
		t.Fatalf("dedup len = %d", r.Len())
	}
	sorted := r.SortedRows()
	if !sorted[0].Equal(Tuple{V(1), V(1)}) {
		t.Errorf("sorted = %v", sorted)
	}
}

func TestRelationProject(t *testing.T) {
	r := NewRelation("R", 3)
	r.AppendInts(1, 2, 3)
	r.AppendInts(1, 5, 3)
	r.AppendInts(7, 8, 9)
	p := r.Project("P", []int{0, 2})
	if p.Len() != 2 || p.Arity() != 2 {
		t.Fatalf("project = %v", p.Rows())
	}
	rows := p.SortedRows()
	if !rows[0].Equal(Tuple{V(1), V(3)}) || !rows[1].Equal(Tuple{V(7), V(9)}) {
		t.Errorf("project rows = %v", rows)
	}
	// Projection to zero columns of a nonempty relation is one empty row.
	z := r.Project("Z", nil)
	if z.Len() != 1 || z.Arity() != 0 {
		t.Errorf("nullary projection len=%d arity=%d", z.Len(), z.Arity())
	}
}

func TestProjectOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic on bad projection")
		}
	}()
	NewRelation("R", 1).Project("P", []int{3})
}

func TestRelationFilterCloneString(t *testing.T) {
	r := NewRelation("R", 1)
	r.AppendInts(1)
	r.AppendInts(2)
	f := r.Filter(func(tp Tuple) bool { return tp[0] == V(2) })
	if f.Len() != 1 || !f.Row(0).Equal(Tuple{V(2)}) {
		t.Errorf("filter = %v", f.Rows())
	}
	c := r.Clone()
	c.AppendInts(3)
	if r.Len() != 2 {
		t.Errorf("clone aliases storage")
	}
	if r.String() != "R/1[2 rows]" {
		t.Errorf("String = %q", r.String())
	}
}

func TestNullaryRelation(t *testing.T) {
	r := NewRelation("B", 0)
	if r.Len() != 0 {
		t.Fatalf("empty nullary len = %d", r.Len())
	}
	r.Append()
	r.Append()
	if r.Len() != 2 {
		t.Fatalf("nullary len = %d", r.Len())
	}
	r.Dedup()
	if r.Len() != 1 {
		t.Errorf("nullary dedup len = %d", r.Len())
	}
	if len(r.Row(0)) != 0 {
		t.Errorf("nullary row non-empty")
	}
}

func TestIndexLookup(t *testing.T) {
	r := NewRelation("R", 2)
	r.AppendInts(1, 10)
	r.AppendInts(1, 20)
	r.AppendInts(2, 30)
	ix := r.BuildIndex([]int{0})
	if got := ix.Lookup([]Value{V(1)}); len(got) != 2 {
		t.Errorf("lookup(1) = %v", got)
	}
	if got := ix.Lookup([]Value{V(3)}); len(got) != 0 {
		t.Errorf("lookup(3) = %v", got)
	}
	if !ix.Contains([]Value{V(2)}) || ix.Contains([]Value{V(9)}) {
		t.Errorf("Contains wrong")
	}
	if len(ix.Cols()) != 1 || ix.Cols()[0] != 0 {
		t.Errorf("Cols = %v", ix.Cols())
	}
}

func TestSemijoin(t *testing.T) {
	r := NewRelation("R", 2)
	r.AppendInts(1, 10)
	r.AppendInts(2, 20)
	r.AppendInts(3, 30)
	s := NewRelation("S", 2)
	s.AppendInts(10, 100)
	s.AppendInts(30, 300)
	out := Semijoin(r, []int{1}, s, []int{0})
	rows := out.SortedRows()
	if len(rows) != 2 || rows[0][0] != V(1) || rows[1][0] != V(3) {
		t.Errorf("semijoin = %v", rows)
	}
}

func TestSemijoinNoSharedColumns(t *testing.T) {
	r := NewRelation("R", 1)
	r.AppendInts(1)
	sEmpty := NewRelation("S", 1)
	if got := Semijoin(r, nil, sEmpty, nil); got.Len() != 0 {
		t.Errorf("semijoin with empty s kept %d rows", got.Len())
	}
	sFull := NewRelation("S", 1)
	sFull.AppendInts(9)
	if got := Semijoin(r, nil, sFull, nil); got.Len() != 1 {
		t.Errorf("semijoin with nonempty s kept %d rows", got.Len())
	}
}

func TestSemijoinMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic on column mismatch")
		}
	}()
	Semijoin(NewRelation("R", 1), []int{0}, NewRelation("S", 1), nil)
}

func TestSemijoinQuickAgainstNaive(t *testing.T) {
	f := func(rvals, svals []uint8) bool {
		r := NewRelation("R", 1)
		for _, v := range rvals {
			r.AppendInts(int64(v % 8))
		}
		s := NewRelation("S", 1)
		sset := make(map[Value]bool)
		for _, v := range svals {
			s.AppendInts(int64(v % 8))
			sset[V(int64(v%8))] = true
		}
		out := Semijoin(r, []int{0}, s, []int{0})
		want := 0
		for i := 0; i < r.Len(); i++ {
			if sset[r.Row(i)[0]] {
				want++
			}
		}
		return out.Len() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstance(t *testing.T) {
	in := NewInstance()
	r := NewRelation("R", 2)
	r.AppendInts(1, 2)
	in.AddRelation(r)
	s := NewRelation("S", 1)
	s.AppendInts(5)
	in.AddRelation(s)
	if in.Relation("R") != r || in.Relation("missing") != nil {
		t.Errorf("Relation lookup wrong")
	}
	if got := in.Names(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Errorf("Names = %v", got)
	}
	if in.Size() != 3 {
		t.Errorf("Size = %d", in.Size())
	}
	if in.TupleCount() != 2 {
		t.Errorf("TupleCount = %d", in.TupleCount())
	}
	c := in.Clone()
	c.Relation("R").AppendInts(7, 8)
	if in.Relation("R").Len() != 1 {
		t.Errorf("clone aliases relations")
	}
	if in.String() == "" {
		t.Errorf("empty String")
	}
}

func TestMustRelationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic for missing relation")
		}
	}()
	NewInstance().MustRelation("nope")
}
