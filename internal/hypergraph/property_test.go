package hypergraph_test

import (
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/hypergraph"
	"repro/internal/workload"
)

// TestRandomJoinTrees verifies the GYO join tree construction on random
// acyclic hypergraphs.
func TestRandomJoinTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	for trial := 0; trial < 200; trial++ {
		q, _ := workload.RandomAcyclicCQ(rng)
		h := hypergraph.FromCQ(q)
		if !h.IsAcyclic() {
			t.Fatalf("trial %d: generator produced a cyclic query %s", trial, q)
		}
		jt, err := hypergraph.BuildJoinTree(h)
		if err != nil {
			t.Fatalf("trial %d: BuildJoinTree: %v", trial, err)
		}
		if err := jt.Verify(); err != nil {
			t.Fatalf("trial %d: Verify: %v", trial, err)
		}
	}
}

// TestAcyclicityInvariantUnderPermutation checks that edge order never
// changes the acyclicity verdict (GYO is Church–Rosser).
func TestAcyclicityInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	bases := []*hypergraph.Hypergraph{
		hypergraph.FromVarSets(vs("a", "b"), vs("b", "c"), vs("c", "d")),
		hypergraph.FromVarSets(vs("a", "b"), vs("b", "c"), vs("c", "a")),
		hypergraph.FromVarSets(vs("a", "b", "c"), vs("b", "c", "d"), vs("c", "d", "a"), vs("a", "b", "d")),
		hypergraph.FromVarSets(vs("x"), vs("x", "y"), vs("y", "z"), vs("w")),
	}
	for bi, base := range bases {
		want := base.IsAcyclic()
		for p := 0; p < 20; p++ {
			perm := rng.Perm(len(base.Edges))
			shuffled := &hypergraph.Hypergraph{}
			for _, i := range perm {
				shuffled.Edges = append(shuffled.Edges, hypergraph.Edge{ID: base.Edges[i].ID, Vars: base.Edges[i].Vars.Clone()})
			}
			if got := shuffled.IsAcyclic(); got != want {
				t.Fatalf("base %d: permutation changed verdict: %v vs %v", bi, got, want)
			}
		}
	}
}

// TestSConnexMonotoneUniversal confirms two structural facts used by the
// generator and the engine: every acyclic hypergraph is ∅-connex and
// V-connex (full variable set).
func TestSConnexMonotoneUniversal(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 100; trial++ {
		q, _ := workload.RandomAcyclicCQ(rng)
		h := hypergraph.FromCQ(q)
		if !h.IsSConnex(cq.NewVarSet()) {
			t.Fatalf("trial %d: not ∅-connex: %s", trial, q)
		}
		if !h.IsSConnex(h.Vertices()) {
			t.Fatalf("trial %d: not V-connex: %s", trial, q)
		}
	}
}

// vs builds a variable set (local copy of the internal test helper).
func vs(vars ...cq.Variable) cq.VarSet { return cq.NewVarSet(vars...) }
