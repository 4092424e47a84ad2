package yannakakis

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cq"
	"repro/internal/database"
)

// makeInstance builds an instance from name -> rows.
func makeInstance(rels map[string][][]int64) *database.Instance {
	inst := database.NewInstance()
	for name, rows := range rels {
		arity := 0
		if len(rows) > 0 {
			arity = len(rows[0])
		}
		r := database.NewRelation(name, arity)
		for _, row := range rows {
			r.AppendInts(row...)
		}
		inst.AddRelation(r)
	}
	return inst
}

// prepare compiles q with enumeration set s and binds the shape to inst.
func prepare(q *cq.CQ, inst *database.Instance, s cq.VarSet) (*Plan, error) {
	sh, err := Compile(q, s)
	if err != nil {
		return nil, err
	}
	return sh.Bind(inst)
}

// sameAnswers compares a plan's head materialisation with the baseline.
func sameAnswers(t *testing.T, q *cq.CQ, inst *database.Instance) {
	t.Helper()
	plan, err := prepare(q, inst, nil)
	if err != nil {
		t.Fatalf("prepare(%s): %v", q, err)
	}
	got := plan.MaterializeHead().SortedRows()
	wantRel, err := baseline.EvalCQ(q, inst)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want := wantRel.SortedRows()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d answers, want %d\ngot:  %v\nwant: %v", q, len(got), len(want), got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: answer %d = %v, want %v", q, i, got[i], want[i])
		}
	}
}

func TestSimpleFreeConnex(t *testing.T) {
	q := cq.MustParseCQ("Q(x,y,w) <- R1(x,y), R2(y,w).")
	inst := makeInstance(map[string][][]int64{
		"R1": {{1, 10}, {2, 10}, {3, 30}},
		"R2": {{10, 100}, {10, 200}, {40, 400}},
	})
	sameAnswers(t, q, inst)
	plan, _ := prepare(q, inst, nil)
	if got := plan.Materialize().Len(); got != 4 {
		t.Errorf("answers = %d, want 4", got)
	}
}

func TestProjectionQuery(t *testing.T) {
	// Existential y: Q(x,w) <- R1(x,y), R2(y,w) is NOT free-connex
	// (free-path x,y,w)... but Q(x) <- R1(x,y), R2(y,w) is.
	q := cq.MustParseCQ("Q(x) <- R1(x,y), R2(y,w).")
	inst := makeInstance(map[string][][]int64{
		"R1": {{1, 10}, {2, 20}, {3, 10}},
		"R2": {{10, 100}, {99, 0}},
	})
	sameAnswers(t, q, inst)
	plan, _ := prepare(q, inst, nil)
	rows := plan.Materialize().SortedRows()
	if len(rows) != 2 || rows[0][0] != database.V(1) || rows[1][0] != database.V(3) {
		t.Errorf("answers = %v", rows)
	}
}

func TestNotFreeConnexRejected(t *testing.T) {
	q := cq.MustParseCQ("Q(x,y) <- R1(x,z), R2(z,y).")
	inst := makeInstance(map[string][][]int64{"R1": {{1, 2}}, "R2": {{2, 3}}})
	if _, err := prepare(q, inst, nil); err == nil {
		t.Errorf("matrix-multiplication query accepted")
	}
	// But the same query with S={x,z} is fine.
	if _, err := prepare(q, inst, cq.NewVarSet("x", "z")); err != nil {
		t.Errorf("{x,z}-connex enumeration rejected: %v", err)
	}
}

func TestCyclicRejected(t *testing.T) {
	q := cq.MustParseCQ("Q(x) <- R1(x,y), R2(y,z), R3(z,x).")
	inst := makeInstance(map[string][][]int64{"R1": {{1, 2}}, "R2": {{2, 3}}, "R3": {{3, 1}}})
	if _, err := prepare(q, inst, nil); err == nil {
		t.Errorf("cyclic query accepted")
	}
}

func TestPrepareErrors(t *testing.T) {
	q := cq.MustParseCQ("Q(x) <- R(x,y).")
	if _, err := prepare(q, makeInstance(map[string][][]int64{}), nil); err == nil {
		t.Errorf("missing relation accepted")
	}
	bad := makeInstance(map[string][][]int64{"R": {{1}}})
	if _, err := prepare(q, bad, nil); err == nil {
		t.Errorf("arity mismatch accepted")
	}
	inst := makeInstance(map[string][][]int64{"R": {{1, 2}}})
	if _, err := prepare(q, inst, cq.NewVarSet("zzz")); err == nil {
		t.Errorf("S outside query accepted")
	}
}

func TestRepeatedVariableAtom(t *testing.T) {
	q := cq.MustParseCQ("Q(x) <- R(x,x).")
	inst := makeInstance(map[string][][]int64{
		"R": {{1, 1}, {1, 2}, {3, 3}},
	})
	sameAnswers(t, q, inst)
	plan, _ := prepare(q, inst, nil)
	if got := plan.Materialize().Len(); got != 2 {
		t.Errorf("answers = %d, want 2", got)
	}
}

func TestBooleanDecide(t *testing.T) {
	q := cq.MustParseCQ("Q() <- R1(x,y), R2(y,z).")
	yes := makeInstance(map[string][][]int64{"R1": {{1, 2}}, "R2": {{2, 3}}})
	no := makeInstance(map[string][][]int64{"R1": {{1, 2}}, "R2": {{9, 3}}})
	// A Boolean CQ enumerates one empty answer or none: the first Next
	// decides it.
	decide := func(inst *database.Instance) bool {
		t.Helper()
		plan, err := prepare(q, inst, nil)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Iterator().Next()
	}
	if !decide(yes) {
		t.Error("no answer on the joining instance")
	}
	if decide(no) {
		t.Error("an answer on the disjoint instance")
	}
}

func TestCartesianProduct(t *testing.T) {
	q := cq.MustParseCQ("Q(x,y) <- R(x), S(y).")
	inst := makeInstance(map[string][][]int64{
		"R": {{1}, {2}},
		"S": {{10}, {20}, {30}},
	})
	sameAnswers(t, q, inst)
	plan, _ := prepare(q, inst, nil)
	if got := plan.Materialize().Len(); got != 6 {
		t.Errorf("answers = %d, want 6", got)
	}
}

func TestEmptyRelation(t *testing.T) {
	q := cq.MustParseCQ("Q(x,y) <- R1(x,y), R2(y).")
	inst := makeInstance(map[string][][]int64{"R1": {{1, 2}}, "R2": {}})
	// Empty R2 needs explicit arity: rebuild with arity 1.
	inst.AddRelation(database.NewRelation("R2", 1))
	plan, err := prepare(q, inst, nil)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if plan.Iterator().Next() {
		t.Errorf("answers found over empty relation")
	}
}

func TestSTupleAndValue(t *testing.T) {
	q := cq.MustParseCQ("Q(b,a) <- R(a,b).")
	inst := makeInstance(map[string][][]int64{"R": {{1, 2}}})
	plan, err := prepare(q, inst, nil)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	it := plan.Iterator()
	if !it.Next() {
		t.Fatalf("no answer")
	}
	// SVars sorted: [a b]; head order: (b,a).
	if got := it.STuple(); !got.Equal(database.Tuple{database.V(1), database.V(2)}) {
		t.Errorf("STuple = %v", got)
	}
	if got := it.HeadTuple(); !got.Equal(database.Tuple{database.V(2), database.V(1)}) {
		t.Errorf("HeadTuple = %v", got)
	}
	if it.Value("a") != database.V(1) {
		t.Errorf("Value(a) = %v", it.Value("a"))
	}
	if it.Next() {
		t.Errorf("extra answer")
	}
}

func TestExtendProducesHomomorphism(t *testing.T) {
	q := cq.MustParseCQ("Q(x) <- R1(x,y), R2(y,w), R3(w).")
	inst := makeInstance(map[string][][]int64{
		"R1": {{1, 10}, {2, 20}},
		"R2": {{10, 100}, {20, 999}},
		"R3": {{100}},
	})
	plan, err := prepare(q, inst, nil)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	it := plan.Iterator()
	count := 0
	for it.Next() {
		it.Extend()
		count++
		// Verify all atoms hold under the full assignment.
		for _, a := range q.Atoms {
			rel := inst.MustRelation(a.Rel)
			found := false
			for i := 0; i < rel.Len(); i++ {
				row := rel.Row(i)
				match := true
				for c, v := range a.Vars {
					if row[c] != it.Value(v) {
						match = false
						break
					}
				}
				if match {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("extension violates atom %s", a)
			}
		}
	}
	if count != 1 {
		t.Errorf("answers = %d, want 1 (only x=1 extends)", count)
	}
}

func TestProviderStyleSubsetS(t *testing.T) {
	// Example 2's Q2 with S = {x,y} ⊂ free(Q2): the S-connex enumeration
	// used by Lemma 8.
	q := cq.MustParseCQ("Q2(x,y,w) <- R1(x,y), R2(y,w).")
	inst := makeInstance(map[string][][]int64{
		"R1": {{1, 10}, {2, 10}, {3, 99}},
		"R2": {{10, 5}, {10, 6}},
	})
	plan, err := prepare(q, inst, cq.NewVarSet("x", "y"))
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	got := plan.Materialize().SortedRows()
	// Q2(I)|{x,y} = {(1,10),(2,10)}; (3,99) is dangling.
	if len(got) != 2 || got[0][0] != database.V(1) || got[1][0] != database.V(2) {
		t.Errorf("projection = %v", got)
	}
	// Extending each S-tuple yields a real Q2 answer.
	it := plan.Iterator()
	for it.Next() {
		it.Extend()
		h := it.HeadTuple()
		if h[2] != database.V(5) && h[2] != database.V(6) {
			t.Errorf("extension w = %v", h[2])
		}
	}
}

func TestMaterializeHeadDedupsWhenHeadOutsideS(t *testing.T) {
	// S = {x}: head (x,y) requires extension; one row per S-tuple.
	q := cq.MustParseCQ("Q(x,y) <- R1(x,y).")
	inst := makeInstance(map[string][][]int64{"R1": {{1, 7}, {1, 8}}})
	plan, err := prepare(q, inst, cq.NewVarSet("x"))
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	rows := plan.MaterializeHead().Rows()
	if len(rows) != 1 {
		t.Errorf("rows = %v (one per S-tuple expected)", rows)
	}
}

func TestHeadWithRepeatedVariables(t *testing.T) {
	q := cq.MustParseCQ("Q(x,x,y) <- R(x,y).")
	inst := makeInstance(map[string][][]int64{"R": {{1, 2}}})
	sameAnswers(t, q, inst)
}

func TestNoDuplicatesAndNoBacktracks(t *testing.T) {
	q := cq.MustParseCQ("Q(x,y,w) <- R1(x,y), R2(y,w), R3(y).")
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		rels := map[string][][]int64{"R1": {}, "R2": {}, "R3": {}}
		for i := 0; i < 30; i++ {
			rels["R1"] = append(rels["R1"], []int64{rng.Int63n(6), rng.Int63n(6)})
			rels["R2"] = append(rels["R2"], []int64{rng.Int63n(6), rng.Int63n(6)})
		}
		for v := int64(0); v < 6; v++ {
			if rng.Intn(2) == 0 {
				rels["R3"] = append(rels["R3"], []int64{v})
			}
		}
		if len(rels["R3"]) == 0 {
			rels["R3"] = append(rels["R3"], []int64{0})
		}
		inst := makeInstance(rels)
		if inst.Relation("R3") == nil || inst.Relation("R3").Arity() != 1 {
			r := database.NewRelation("R3", 1)
			inst.AddRelation(r)
		}
		plan, err := prepare(q, inst, nil)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		it := plan.Iterator()
		seen := make(map[string]bool)
		for it.Next() {
			k := it.STuple().Key()
			if seen[k] {
				t.Fatalf("duplicate answer %v", it.STuple())
			}
			seen[k] = true
		}
		if it.Backtracks != 0 {
			t.Errorf("trial %d: %d backtracks after full reduction", trial, it.Backtracks)
		}
		sameAnswers(t, q, inst)
	}
}

func TestRandomizedAgainstBaseline(t *testing.T) {
	queries := []string{
		"Q(x,y,w) <- R1(x,y), R2(y,w).",
		"Q(x) <- R1(x,y), R2(y,w).",
		"Q(x,y) <- R1(x,y), R2(y,w), R3(w,u).",
		"Q(a,b,c) <- R1(a,b), R2(b,c), R3(c).",
		"Q(x,y,z) <- R1(x,y), R2(y,z), R3(y).",
		"Q(x) <- R1(x,y), R2(y,w), R3(w).",
	}
	rng := rand.New(rand.NewSource(42))
	for _, src := range queries {
		q := cq.MustParseCQ(src)
		for trial := 0; trial < 10; trial++ {
			inst := database.NewInstance()
			for _, d := range cq.MustUCQ(q).Schema() {
				r := database.NewRelation(d.Name, d.Arity)
				for i := 0; i < 20; i++ {
					row := make([]int64, d.Arity)
					for c := range row {
						row[c] = rng.Int63n(5)
					}
					r.AppendInts(row...)
				}
				r.Dedup()
				inst.AddRelation(r)
			}
			sameAnswers(t, q, inst)
		}
	}
}

func TestStats(t *testing.T) {
	q := cq.MustParseCQ("Q(x) <- R1(x,y), R2(y,w).")
	inst := makeInstance(map[string][][]int64{"R1": {{1, 2}}, "R2": {{2, 3}}})
	plan, err := prepare(q, inst, nil)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	st := plan.Stats()
	if st.Tops == 0 {
		t.Errorf("no tops recorded")
	}
	if st.InputValues != 4 {
		t.Errorf("InputValues = %d, want 4", st.InputValues)
	}
	if st.Projections == 0 {
		t.Errorf("expected at least one projection (w is solo)")
	}
	if plan.NumVars() != 3 {
		t.Errorf("NumVars = %d", plan.NumVars())
	}
	if plan.VarID("x") < 0 || plan.VarID("nope") != -1 {
		t.Errorf("VarID lookup wrong")
	}
}

func TestIteratorExhaustionIsSticky(t *testing.T) {
	q := cq.MustParseCQ("Q(x) <- R(x).")
	inst := makeInstance(map[string][][]int64{"R": {{1}}})
	plan, _ := prepare(q, inst, nil)
	it := plan.Iterator()
	if !it.Next() || it.Next() {
		t.Fatalf("expected exactly one answer")
	}
	if it.Next() {
		t.Errorf("iterator revived after exhaustion")
	}
}
