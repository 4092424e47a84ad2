package baseline

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
)

func inst(rels map[string]struct {
	arity int
	rows  [][]int64
}) *database.Instance {
	in := database.NewInstance()
	for name, spec := range rels {
		r := database.NewRelation(name, spec.arity)
		for _, row := range spec.rows {
			r.AppendInts(row...)
		}
		in.AddRelation(r)
	}
	return in
}

func TestEvalCQSimpleJoin(t *testing.T) {
	q := cq.MustParseCQ("Q(x,z) <- R(x,y), S(y,z).")
	in := inst(map[string]struct {
		arity int
		rows  [][]int64
	}{
		"R": {2, [][]int64{{1, 10}, {2, 10}, {3, 30}}},
		"S": {2, [][]int64{{10, 7}, {30, 8}}},
	})
	out, err := EvalCQ(q, in)
	if err != nil {
		t.Fatalf("EvalCQ: %v", err)
	}
	rows := out.SortedRows()
	want := []database.Tuple{
		{database.V(1), database.V(7)},
		{database.V(2), database.V(7)},
		{database.V(3), database.V(8)},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i := range want {
		if !rows[i].Equal(want[i]) {
			t.Errorf("row %d = %v, want %v", i, rows[i], want[i])
		}
	}
}

func TestEvalCQDeduplicates(t *testing.T) {
	q := cq.MustParseCQ("Q(x) <- R(x,y).")
	in := inst(map[string]struct {
		arity int
		rows  [][]int64
	}{
		"R": {2, [][]int64{{1, 10}, {1, 20}, {1, 30}}},
	})
	out, _ := EvalCQ(q, in)
	if out.Len() != 1 {
		t.Errorf("answers = %d, want 1", out.Len())
	}
}

func TestEvalCQSelfJoinAndRepeatedVars(t *testing.T) {
	q := cq.MustParseCQ("Q(x,y) <- R(x,y), R(y,x).")
	in := inst(map[string]struct {
		arity int
		rows  [][]int64
	}{
		"R": {2, [][]int64{{1, 2}, {2, 1}, {3, 4}}},
	})
	out, _ := EvalCQ(q, in)
	if out.Len() != 2 { // (1,2) and (2,1)
		t.Errorf("answers = %v", out.SortedRows())
	}
	q2 := cq.MustParseCQ("Q(x) <- R(x,x).")
	in2 := inst(map[string]struct {
		arity int
		rows  [][]int64
	}{
		"R": {2, [][]int64{{1, 1}, {1, 2}}},
	})
	out2, _ := EvalCQ(q2, in2)
	if out2.Len() != 1 {
		t.Errorf("repeated-var answers = %v", out2.SortedRows())
	}
}

func TestEvalCQCyclicQueryWorks(t *testing.T) {
	// The baseline handles cyclic queries (unlike the CDY engine).
	q := cq.MustParseCQ("Q(x,y,z) <- R(x,y), S(y,z), T(z,x).")
	in := inst(map[string]struct {
		arity int
		rows  [][]int64
	}{
		"R": {2, [][]int64{{1, 2}, {2, 3}}},
		"S": {2, [][]int64{{2, 3}}},
		"T": {2, [][]int64{{3, 1}}},
	})
	out, _ := EvalCQ(q, in)
	rows := out.Rows()
	if len(rows) != 1 || !rows[0].Equal(database.Tuple{database.V(1), database.V(2), database.V(3)}) {
		t.Errorf("triangle = %v", rows)
	}
}

func TestDecideCQ(t *testing.T) {
	q := cq.MustParseCQ("Q() <- R(x), S(x).")
	yes := inst(map[string]struct {
		arity int
		rows  [][]int64
	}{
		"R": {1, [][]int64{{1}, {2}}},
		"S": {1, [][]int64{{2}}},
	})
	// A Boolean CQ's answer relation is nullary: one empty row or none.
	if out, err := EvalCQ(q, yes); err != nil || out.Len() != 1 {
		t.Errorf("EvalCQ(yes) = %v, %v; want one empty answer", out, err)
	}
	no := inst(map[string]struct {
		arity int
		rows  [][]int64
	}{
		"R": {1, [][]int64{{1}}},
		"S": {1, [][]int64{{2}}},
	})
	if out, err := EvalCQ(q, no); err != nil || out.Len() != 0 {
		t.Errorf("EvalCQ(no) = %v, %v; want no answer", out, err)
	}
}

func TestEvalUCQUnionAndDedup(t *testing.T) {
	u := cq.MustParse(`
		Q1(x) <- R(x,y).
		Q2(x) <- S(x).
	`)
	in := inst(map[string]struct {
		arity int
		rows  [][]int64
	}{
		"R": {2, [][]int64{{1, 10}, {2, 20}}},
		"S": {1, [][]int64{{2}, {3}}},
	})
	out, err := EvalUCQ(u, in)
	if err != nil {
		t.Fatalf("EvalUCQ: %v", err)
	}
	if out.Len() != 3 { // {1,2,3}; 2 appears in both CQs but is deduped
		t.Errorf("union = %v", out.SortedRows())
	}
}

func TestErrors(t *testing.T) {
	q := cq.MustParseCQ("Q(x) <- R(x).")
	empty := database.NewInstance()
	if _, err := EvalCQ(q, empty); err == nil {
		t.Errorf("missing relation accepted")
	}
	bad := database.NewInstance()
	bad.AddRelation(database.NewRelation("R", 3))
	if _, err := EvalCQ(q, bad); err == nil {
		t.Errorf("arity mismatch accepted")
	}
	u := cq.MustUCQ(q)
	if _, err := EvalUCQ(u, empty); err == nil {
		t.Errorf("EvalUCQ accepted missing relation")
	}
}
