package yannakakis

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/workload"
)

// TestRandomQueriesAgainstBaseline is the engine's main property test:
// for hundreds of randomly shaped acyclic queries with random S-connex
// enumeration sets and random data, the constant-delay engine must produce
// exactly the baseline's answer set, duplicate-free and without DFS
// backtracking.
func TestRandomQueriesAgainstBaseline(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(20260610))
	for trial := 0; trial < trials; trial++ {
		q, s := workload.RandomAcyclicCQ(rng)
		inst := workload.RandomInstanceForCQ(q, 15+rng.Intn(30), 4+rng.Int63n(4), rng.Int63())

		plan, err := prepare(q, inst, s)
		if err != nil {
			t.Fatalf("trial %d: prepare(%s, S=%v): %v", trial, q, s, err)
		}
		it := plan.Iterator()
		got := make(map[string]bool)
		for it.Next() {
			k := it.STuple().Key()
			if got[k] {
				t.Fatalf("trial %d: duplicate answer %v for %s", trial, it.STuple(), q)
			}
			got[k] = true
		}
		if it.Backtracks != 0 {
			t.Errorf("trial %d: %d backtracks after full reduction (%s)", trial, it.Backtracks, q)
		}

		// Baseline: head = S in sorted order by construction.
		want, err := baseline.EvalCQ(q, inst)
		if err != nil {
			t.Fatalf("trial %d: baseline: %v", trial, err)
		}
		if len(got) != want.Len() {
			t.Fatalf("trial %d: %s S=%v: engine %d answers, baseline %d",
				trial, q, s, len(got), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if !got[want.Row(i).Key()] {
				t.Fatalf("trial %d: missing answer %v for %s", trial, want.Row(i), q)
			}
		}
	}
}

// TestRandomQueriesExtendIsHomomorphism checks Lemma 8's extension on
// random queries: every extended assignment satisfies every atom.
func TestRandomQueriesExtendIsHomomorphism(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < trials; trial++ {
		q, s := workload.RandomAcyclicCQ(rng)
		inst := workload.RandomInstanceForCQ(q, 20, 4, rng.Int63())
		plan, err := prepare(q, inst, s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		it := plan.Iterator()
		checked := 0
		for it.Next() && checked < 50 {
			it.Extend()
			checked++
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
					t.Fatalf("trial %d: extension violates %s in %s", trial, a, q)
				}
			}
		}
	}
}

// Contains reports whether the given tuple over Plan.SVars (sorted variable
// order, as produced by Iterator.STuple) is an answer: the tuple is an
// answer iff each top node contains its projection, since a full
// S-assignment determines one row per top. It is the allocating,
// any-S twin of ContainsHead and has only test callers.
func (p *Plan) Contains(t database.Tuple) bool {
	if len(t) != len(p.SVars) {
		return false
	}
	valueOf := make([]database.Value, p.NumVars())
	for i, id := range p.shape.sIDs {
		valueOf[id] = t[i]
	}
	key := make(database.Tuple, 0, 4)
	for i := range p.shape.tops {
		key = key[:0]
		for _, vid := range p.shape.tops[i].varIDs {
			key = append(key, valueOf[vid])
		}
		if !p.fullKeys(i).Contains(key) {
			return false
		}
	}
	return true
}

// TestRandomQueriesContains checks the constant-time membership test
// against the enumerated answer set.
func TestRandomQueriesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		q, s := workload.RandomAcyclicCQ(rng)
		inst := workload.RandomInstanceForCQ(q, 20, 4, rng.Int63())
		plan, err := prepare(q, inst, s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		answers := plan.Materialize()
		for i := 0; i < answers.Len(); i++ {
			if !plan.Contains(answers.Row(i)) {
				t.Fatalf("trial %d: Contains rejected answer %v", trial, answers.Row(i))
			}
		}
		// Perturb an answer; membership must agree with a linear scan.
		// (Skip nullary answers: S may legitimately be empty.)
		if answers.Len() > 0 && answers.Arity() > 0 {
			probe := answers.Row(0).Clone()
			probe[0] = probe[0] + 1
			inSet := false
			for i := 0; i < answers.Len(); i++ {
				if answers.Row(i).Equal(probe) {
					inSet = true
					break
				}
			}
			if plan.Contains(probe) != inSet {
				t.Fatalf("trial %d: Contains(%v) = %v, scan says %v",
					trial, probe, plan.Contains(probe), inSet)
			}
		}
	}
}

// TestContainsHeadAgainstScan checks the compiled head probe on random
// free-connex queries (S = free(Q)): every answer is a member, a perturbed
// answer's verdict agrees with a linear scan, and a probe allocates nothing.
func TestContainsHeadAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	probed := 0
	for trial := 0; trial < 60; trial++ {
		q, _ := workload.RandomAcyclicCQ(rng)
		inst := workload.RandomInstanceForCQ(q, 20, 4, rng.Int63())
		plan, err := prepare(q, inst, nil)
		if err != nil {
			continue // not free-connex
		}
		if !plan.HeadTestable() {
			t.Fatalf("trial %d: S = free(Q) plan is not head-testable: %s", trial, q)
		}
		answers := plan.MaterializeHead()
		inSet := make(map[string]bool, answers.Len())
		for i := 0; i < answers.Len(); i++ {
			inSet[answers.Row(i).Key()] = true
			if !plan.ContainsHead(answers.Row(i)) {
				t.Fatalf("trial %d: ContainsHead rejected answer %v of %s", trial, answers.Row(i), q)
			}
		}
		if answers.Len() == 0 || answers.Arity() == 0 {
			continue
		}
		for c := 0; c < answers.Arity(); c++ {
			probe := answers.Row(rng.Intn(answers.Len())).Clone()
			probe[c]++
			if got := plan.ContainsHead(probe); got != inSet[probe.Key()] {
				t.Fatalf("trial %d: ContainsHead(%v) = %v, scan says %v for %s", trial, probe, got, !got, q)
			}
		}
		probe := answers.Row(0)
		if allocs := testing.AllocsPerRun(100, func() { plan.ContainsHead(probe) }); allocs != 0 {
			t.Fatalf("trial %d: ContainsHead allocates %v objects per probe on %s", trial, allocs, q)
		}
		probed++
	}
	if probed < 10 {
		t.Errorf("only %d/60 random queries were free-connex with answers; generator regressed", probed)
	}
}

// TestContainsHeadRepeatedHeadVariable: positions repeating a head variable
// must agree, and do not confuse the column mapping.
func TestContainsHeadRepeatedHeadVariable(t *testing.T) {
	q := cq.MustParseCQ("Q(x,x,y) <- R(x,y).")
	plan, err := prepare(q, makeInstance(map[string][][]int64{"R": {{1, 2}, {2, 2}}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		probe []int64
		want  bool
	}{
		{[]int64{1, 1, 2}, true},
		{[]int64{2, 2, 2}, true},
		{[]int64{1, 2, 2}, false}, // both R rows exist, but x ≠ x
		{[]int64{2, 1, 2}, false},
		{[]int64{1, 1, 1}, false},
		{[]int64{1, 1}, false},
	} {
		probe := make(database.Tuple, len(tc.probe))
		for i, v := range tc.probe {
			probe[i] = database.V(v)
		}
		if got := plan.ContainsHead(probe); got != tc.want {
			t.Errorf("ContainsHead(%v) = %v, want %v", probe, got, tc.want)
		}
	}
}

// TestContainsHeadRefusesUndecidablePlans: when S is not the head's
// variable set a head tuple cannot decide membership; the plan says so up
// front and a probe is a programming error, never a silent "no".
func TestContainsHeadRefusesUndecidablePlans(t *testing.T) {
	inst := makeInstance(map[string][][]int64{"R1": {{1, 7}, {1, 8}}})
	for _, tc := range []struct {
		query string
		s     cq.VarSet
	}{
		{"Q(x) <- R1(x,y).", cq.NewVarSet("x", "y")}, // S variable outside the head
		{"Q(x,y) <- R1(x,y).", cq.NewVarSet("x")},    // head variable outside S
	} {
		plan, err := prepare(cq.MustParseCQ(tc.query), inst, tc.s)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if plan.HeadTestable() {
			t.Fatalf("%s with S=%v claims to be head-testable", tc.query, tc.s)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with S=%v: ContainsHead answered instead of panicking", tc.query, tc.s)
				}
			}()
			plan.ContainsHead(database.Tuple{database.V(1), database.V(7)}[:len(plan.Q.Head)])
		}()
	}
}
