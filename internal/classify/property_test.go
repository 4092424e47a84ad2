package classify_test

import (
	"math/rand"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/workload"
)

// randomBodyIsomorphicPair builds two self-join-free CQs sharing one
// random acyclic body, with random same-arity heads.
func randomBodyIsomorphicPair(rng *rand.Rand) *cq.UCQ {
	body, _ := workload.RandomAcyclicCQ(rng)
	vars := body.Vars().Sorted()
	arity := 1 + rng.Intn(len(vars))
	pickHead := func() []cq.Variable {
		perm := rng.Perm(len(vars))
		head := make([]cq.Variable, arity)
		for i := 0; i < arity; i++ {
			head[i] = vars[perm[i]]
		}
		return head
	}
	q1 := &cq.CQ{Name: "Q1", Head: pickHead(), Atoms: body.Atoms}
	q2 := &cq.CQ{Name: "Q2", Head: pickHead(), Atoms: body.Atoms}
	return cq.MustUCQ(q1, q2)
}

// TestTheorem29CrossValidation is the dichotomy's consistency check on
// random instances of its domain: for a union of two self-join-free
// body-isomorphic acyclic CQs, the guard conditions of Definition 23 hold
// in both directions if and only if the certificate search proves the
// union free-connex (Theorem 29 / Lemma 28). Any divergence exposes a bug
// in either the guards or the search.
func TestTheorem29CrossValidation(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 40
	}
	rng := rand.New(rand.NewSource(2929))
	// When guards hold, Lemma 28 promises a certificate: search generously.
	// When guards fail, NO certificate exists at any budget (Theorem 29),
	// so a small-budget search suffices to catch soundness bugs without
	// exhausting the combination space.
	generous := &core.SearchOptions{MaxVirtualAtoms: 4, MaxRounds: 8}
	frugal := &core.SearchOptions{MaxVirtualAtoms: 2, MaxRounds: 4, MaxCandidates: 64}
	for trial := 0; trial < trials; trial++ {
		u := randomBodyIsomorphicPair(rng)
		rw, ok := classify.RewriteBodyIsomorphic(u)
		if !ok {
			t.Fatalf("trial %d: generated pair not body-isomorphic:\n%s", trial, u)
		}
		guarded := classify.FreePathGuarded(rw, 0, 1) &&
			classify.FreePathGuarded(rw, 1, 0) &&
			classify.BypassGuarded(rw, 0, 1) &&
			classify.BypassGuarded(rw, 1, 0)
		if guarded {
			if _, certified := core.FindCertificate(u, generous); !certified {
				t.Errorf("trial %d: guards hold but no certificate found for\n%s", trial, u)
			}
		} else {
			if _, certified := core.FindCertificate(u, frugal); certified {
				t.Errorf("trial %d: guards fail but a certificate was found for\n%s", trial, u)
			}
		}
	}
}

// TestClassifierNeverContradictsCertificates: on random body-isomorphic
// pairs, a Tractable verdict must come with guards holding, and an
// Intractable verdict must come with a guard violation.
func TestClassifierNeverContradictsCertificates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 80; trial++ {
		u := randomBodyIsomorphicPair(rng)
		res, err := classify.ClassifyUCQ(u)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Two body-isomorphic acyclic sjf CQs: Theorem 29 is a dichotomy,
		// so Unknown is never a valid verdict here.
		if res.Verdict == classify.Unknown {
			t.Errorf("trial %d: dichotomy case classified Unknown:\n%s\n%s", trial, u, res.Reason)
		}
	}
}
