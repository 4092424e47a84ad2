package reduction

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/classify"
	"repro/internal/cq"
	"repro/internal/graph"
	"repro/internal/hypergraph"
)

func TestExample31QueryKMatchesFixed(t *testing.T) {
	gen := Example31QueryK(4)
	fixed := Example31Query()
	if len(gen.CQs) != len(fixed.CQs) {
		t.Fatalf("k=4 family has %d CQs, fixed has %d", len(gen.CQs), len(fixed.CQs))
	}
	// Same bodies; heads are the four 3-subsets (order of CQs may differ).
	wantHeads := map[string]bool{}
	for _, q := range fixed.CQs {
		wantHeads[q.Free().String()] = true
	}
	for _, q := range gen.CQs {
		if !wantHeads[q.Free().String()] {
			t.Errorf("unexpected head %v", q.Free())
		}
	}
}

func TestExample31FamilyClassification(t *testing.T) {
	for _, k := range []int{4, 5, 6} {
		u := Example31QueryK(k)
		res, err := classify.ClassifyUCQ(u)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// The general theorems do not decide these unions (union guarded
		// but not isolated): the classifier must say Unknown for every k.
		// (The paper proves k=4 intractable by an ad-hoc reduction and
		// leaves k ≥ 5 open.)
		if res.Verdict != classify.Unknown {
			t.Errorf("k=%d: verdict = %v (%s), want unknown", k, res.Verdict, res.Reason)
		}
	}
}

func TestExample31FamilyGuardStructure(t *testing.T) {
	for _, k := range []int{4, 5} {
		u := Example31QueryK(k)
		rw, ok := classify.RewriteBodyIsomorphic(u)
		if !ok {
			t.Fatalf("k=%d: not body-isomorphic", k)
		}
		// Q1 (the z-free head) has (k-1 choose 2) free-paths (xi, z, xj),
		// all union guarded, none isolated.
		var q1 = -1
		for i, q := range u.CQs {
			if !q.Free().Contains("z") {
				q1 = i
			}
		}
		if q1 < 0 {
			t.Fatalf("k=%d: no z-free head", k)
		}
		paths := rw.FreePathsOf(q1)
		want := (k - 1) * (k - 2) / 2
		if len(paths) != want {
			t.Fatalf("k=%d: %d free-paths, want %d", k, len(paths), want)
		}
		for _, p := range paths {
			if !classify.UnionGuarded(rw, p) {
				t.Errorf("k=%d: path %v not union guarded", k, p)
			}
			if classify.Isolated(rw, q1, p) {
				t.Errorf("k=%d: path %v isolated (they all share z)", k, p)
			}
		}
	}
}

func TestExample39QueryKMatchesFixed(t *testing.T) {
	gen := Example39QueryK(4)
	fixed := Example39Query()
	if gen.CQs[0].String() != fixed.CQs[0].String() {
		t.Errorf("Q1 differs:\n%s\n%s", gen.CQs[0], fixed.CQs[0])
	}
	if gen.CQs[1].String() != fixed.CQs[1].String() {
		t.Errorf("Q2 differs:\n%s\n%s", gen.CQs[1], fixed.CQs[1])
	}
}

func TestExample39FamilyStructure(t *testing.T) {
	for _, k := range []int{4, 5, 6} {
		u := Example39QueryK(k)
		q1, q2 := u.CQs[0], u.CQs[1]
		if classify.ClassifyCQ(q1) != classify.Cyclic {
			t.Errorf("k=%d: Q1 should be cyclic", k)
		}
		if classify.ClassifyCQ(q2) != classify.FreeConnex {
			t.Errorf("k=%d: Q2 should be free-connex", k)
		}
		res, err := classify.ClassifyUCQ(u)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Verdict != classify.Unknown {
			t.Errorf("k=%d: verdict = %v (%s), want unknown", k, res.Verdict, res.Reason)
		}
		// The paper: extending Q1 with the provided atom over
		// {x1,...,x(k-1)} "removes" the cycle but introduces a
		// hyperclique, so the extension stays cyclic.
		provided := make(cq.VarSet)
		for i := 1; i < k; i++ {
			provided[cq.Variable(fmt.Sprintf("x%d", i))] = true
		}
		if hypergraph.FromCQ(q1).WithEdge(provided).IsAcyclic() {
			t.Errorf("k=%d: extension with %v should stay cyclic", k, provided)
		}
	}
}

// bruteKClique checks for a k-clique by exhaustive search (test oracle).
func bruteKClique(g *graph.Graph, k int) bool {
	verts := make([]int, k)
	var rec func(start, depth int) bool
	rec = func(start, depth int) bool {
		if depth == k {
			return true
		}
		for v := start; v < g.N(); v++ {
			ok := true
			for i := 0; i < depth; i++ {
				if !g.HasEdge(verts[i], v) {
					ok = false
					break
				}
			}
			if ok {
				verts[depth] = v
				if rec(v+1, depth+1) {
					return true
				}
			}
		}
		return false
	}
	return rec(0, 0)
}

// TestExample31ReductionK runs the generalized Example 31 reduction at
// k = 4 and k = 5: the decoded verdict must match brute-force k-clique
// detection. (For k ≥ 5 the paper notes the O(n^(k-1)) answer bound no
// longer contradicts the k-clique hypothesis — the reduction still
// computes the right answer, it just proves nothing.)
func TestExample31ReductionK(t *testing.T) {
	for _, k := range []int{4, 5} {
		u := Example31QueryK(k)
		for seed := int64(0); seed < 4; seed++ {
			g := graph.ErdosRenyi(12, 0.4, seed+int64(k)*100)
			if seed%2 == 0 {
				graph.PlantClique(g, k, seed+1)
			}
			inst := Example31InstanceK(g, k)
			answers, err := baseline.EvalUCQ(u, inst)
			if err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			got := Example31HasKClique(g, answers, k)
			want := bruteKClique(g, k)
			if got != want {
				t.Errorf("k=%d seed=%d: reduction says %v, brute force says %v", k, seed, got, want)
			}
		}
	}
}
