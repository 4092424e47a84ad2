package core

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/hypergraph"
)

// provided runs the certificate search's own candidate generator for target
// CQ i over plain provider snapshots and returns the variable sets it
// justifies from provider j (Definition 7): every subset, of two or more
// variables, of an image h(S) with Qj S-connex, unless an atom of Qi
// already covers it.
func provided(u *cq.UCQ, j, i int) []cq.VarSet {
	ext := make([]*ExtendedCQ, len(u.CQs))
	for k := range ext {
		ext[k] = plainSnapshot(u, k)
	}
	var out []cq.VarSet
	for _, c := range generateCandidates(u, ext, newHomCache(u), i) {
		if c.prov.ProviderIndex == j {
			out = append(out, cq.NewVarSet(c.vars...))
		}
	}
	return out
}

// canProvide reports whether provider j justifies exactly v for target i.
func canProvide(u *cq.UCQ, j, i int, v cq.VarSet) bool {
	for _, s := range provided(u, j, i) {
		if s.Equal(v) {
			return true
		}
	}
	return false
}

func TestProvidedSetsExample2(t *testing.T) {
	u := cq.MustParse(example2)
	// The paper: Q2 provides {x,z,y} to Q1.
	if !canProvide(u, 1, 0, cq.NewVarSet("x", "z", "y")) {
		t.Errorf("Q2 should provide {x,y,z} to Q1; provided: %v", provided(u, 1, 0))
	}
	// Q1 provides nothing useful to Q2 beyond what Q2 already has; there
	// is no body-homomorphism from Q1 to Q2 (R3 is missing).
	if got := provided(u, 0, 1); got != nil {
		t.Errorf("Q1 should provide nothing to Q2, got %v", got)
	}
}

func TestProvidedSetsExample13(t *testing.T) {
	u := cq.MustParse(example13)
	// The paper: Q2 provides {x,z1,y} to Q3 and Q3 provides {v,z1,u} to Q2.
	if !canProvide(u, 1, 2, cq.NewVarSet("x", "z1", "y")) {
		t.Errorf("Q2 should provide {x,z1,y} to Q3; got %v", provided(u, 1, 2))
	}
	if !canProvide(u, 2, 1, cq.NewVarSet("v", "z1", "u")) {
		t.Errorf("Q3 should provide {v,z1,u} to Q2; got %v", provided(u, 2, 1))
	}
}

func TestProvidedSetsExample36(t *testing.T) {
	u := cq.MustParse(example36)
	// The paper: Q2 provides {t,y,z,w} to Q1.
	if !canProvide(u, 1, 0, cq.NewVarSet("t", "y", "z", "w")) {
		t.Errorf("Q2 should provide {t,y,z,w} to Q1; got %v", provided(u, 1, 0))
	}
}

func TestProvidedSetsSelfProvision(t *testing.T) {
	// A free-connex CQ provides its own free variables to itself via the
	// identity body-homomorphism.
	u := cq.MustParse("Q(x,y) <- R(x), S(y).")
	if !canProvide(u, 0, 0, cq.NewVarSet("x", "y")) {
		t.Errorf("self-provision of the free variables failed: %v", provided(u, 0, 0))
	}
	// When an atom already covers them, the set adds no structure and the
	// search does not offer it.
	u = cq.MustParse("Q(x,y) <- R(x,y), S(y,w).")
	if got := provided(u, 0, 0); got != nil {
		t.Errorf("a covered self-provision was offered: %v", got)
	}
}

func TestProvidedSetsCyclicProviderGivesNothing(t *testing.T) {
	u := cq.MustParse(`
		Q1(x,y) <- R1(x,y), R2(y,z), R3(z,x).
		Q2(x,y) <- R1(x,y), R2(y,z), R3(z,x).
	`)
	// A cyclic provider is never S-connex for any S.
	if got := provided(u, 1, 0); got != nil {
		t.Errorf("cyclic provider provided %v", got)
	}
}

func TestProvidedSetsBounds(t *testing.T) {
	// Every offered set has at least two variables, all of the target's,
	// and no atom of the target covers it.
	for _, src := range []string{example2, example13, example36} {
		u := cq.MustParse(src)
		for i, target := range u.CQs {
			edges := hypergraph.FromCQ(target)
			for j := range u.CQs {
				for _, s := range provided(u, j, i) {
					if len(s) < 2 || !target.Vars().ContainsAll(s) || edges.HasEdgeCovering(s) {
						t.Errorf("Q%d offered %v to Q%d", j+1, s, i+1)
					}
				}
			}
		}
	}
}

func TestProvidedSetsAreMaximal(t *testing.T) {
	// The offered sets are every large-enough subset of the images, each
	// once; in Example 2 their one inclusion-maximal set is {x,y,z}.
	u := cq.MustParse(example2)
	sets := provided(u, 1, 0)
	var maximal []cq.VarSet
	for i, a := range sets {
		dominated := false
		for j, b := range sets {
			if i != j && a.Equal(b) {
				t.Errorf("duplicate set %v", a)
			}
			if b.ContainsAll(a) && !a.Equal(b) {
				dominated = true
			}
		}
		if !dominated {
			maximal = append(maximal, a)
		}
	}
	if len(maximal) != 1 || !maximal[0].Equal(cq.NewVarSet("x", "y", "z")) {
		t.Errorf("maximal provided sets %v, want [{x,y,z}]", maximal)
	}
}
