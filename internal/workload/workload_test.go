package workload

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/cq"
)

func TestRandomRespectsSchema(t *testing.T) {
	u := cq.MustParse("Q(x,y) <- R(x,y), S(y,z), T(z).")
	inst := RandomForQuery(u, 25, 6, 1)
	for _, d := range u.Schema() {
		r := inst.Relation(d.Name)
		if r == nil {
			t.Fatalf("relation %s missing", d.Name)
		}
		if r.Arity() != d.Arity {
			t.Errorf("relation %s arity = %d, want %d", d.Name, r.Arity(), d.Arity)
		}
		if r.Len() == 0 || r.Len() > 25 {
			t.Errorf("relation %s has %d rows", d.Name, r.Len())
		}
	}
	// Determinism.
	inst2 := RandomForQuery(u, 25, 6, 1)
	if inst.Size() != inst2.Size() {
		t.Errorf("same seed, different instances")
	}
}

func TestChainLayering(t *testing.T) {
	inst := Chain([]string{"A", "B"}, []int{2, 2}, 10, 3, 2)
	a := inst.Relation("A")
	for i := 0; i < a.Len(); i++ {
		row := a.Row(i)
		if int64(row[0]) >= 10 || int64(row[1]) < 10 || int64(row[1]) >= 20 {
			t.Fatalf("layering violated: %v", row)
		}
	}
	if a.Len() > 30 {
		t.Errorf("A has %d rows, want ≤ width·degree = 30", a.Len())
	}
}

func TestChainPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic on names/arities mismatch")
		}
	}()
	Chain([]string{"A"}, []int{2, 2}, 5, 1, 0)
}

func TestExample2InstanceJoins(t *testing.T) {
	u := cq.MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`)
	inst := Example2Instance(15, 2, 3)
	out, err := baseline.EvalUCQ(u, inst)
	if err != nil {
		t.Fatalf("EvalUCQ: %v", err)
	}
	if out.Len() == 0 {
		t.Errorf("chain instance produced no answers")
	}
}

func TestExample13InstanceJoins(t *testing.T) {
	u := cq.MustParse(`
		Q1(x,y,v,u) <- R1(x,z1), R2(z1,z2), R3(z2,z3), R4(z3,y), R5(y,v,u).
		Q2(x,y,v,u) <- R1(x,y), R2(y,v), R3(v,z1), R4(z1,u), R5(u,t1,t2).
		Q3(x,y,v,u) <- R1(x,z1), R2(z1,y), R3(y,v), R4(v,u), R5(u,t1,t2).
	`)
	inst := Example13Instance(10, 2, 4)
	out, err := baseline.EvalUCQ(u, inst)
	if err != nil {
		t.Fatalf("EvalUCQ: %v", err)
	}
	if out.Len() == 0 {
		t.Errorf("chain instance produced no answers")
	}
}
