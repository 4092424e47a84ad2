// Package classify decides the enumeration complexity of CQs and UCQs with
// respect to DelayClin, following the paper's results:
//
//   - CQs: the Bagan et al. / Brault-Baron dichotomy (Theorem 3);
//   - UCQs, upper bounds: free-connexity via union extensions (Theorem 12),
//     established constructively through internal/core's certificate search;
//   - UCQs, lower bounds: Lemma 14/15 reductions, Theorem 17 (unions of
//     intractable CQs), Theorem 29 (two body-isomorphic CQs, via free-path
//     and bypass guards of Definition 23), and Theorem 33 (union guards of
//     Definition 32), plus Theorem 35 (union guarded + isolated ⇒
//     tractable).
//
// The paper leaves the full dichotomy open; queries outside the reach of
// these results are honestly reported Unknown (Section 5 shows some truly
// are open).
package classify

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/homomorphism"
	"repro/internal/hypergraph"
)

// CQClass is the Theorem 3 trichotomy.
type CQClass int

const (
	// FreeConnex CQs are in DelayClin.
	FreeConnex CQClass = iota
	// AcyclicNotFreeConnex CQs are not in DelayClin (assuming mat-mul) when
	// self-join free.
	AcyclicNotFreeConnex
	// Cyclic CQs are not in DelayClin (assuming hyperclique) when self-join
	// free; even Decide is not linear-time.
	Cyclic
)

// String renders the class.
func (c CQClass) String() string {
	switch c {
	case FreeConnex:
		return "free-connex"
	case AcyclicNotFreeConnex:
		return "acyclic non-free-connex"
	case Cyclic:
		return "cyclic"
	}
	return fmt.Sprintf("CQClass(%d)", int(c))
}

// ClassifyCQ computes the structural class of a single CQ.
func ClassifyCQ(q *cq.CQ) CQClass {
	h := hypergraph.FromCQ(q)
	if !h.IsAcyclic() {
		return Cyclic
	}
	if h.WithEdge(q.Free()).IsAcyclic() {
		return FreeConnex
	}
	return AcyclicNotFreeConnex
}

// Verdict is the outcome of UCQ classification.
type Verdict int

const (
	// Tractable: the UCQ is in DelayClin (certificate or theorem).
	Tractable Verdict = iota
	// Intractable: the UCQ is not in DelayClin under the named hypotheses.
	Intractable
	// Unknown: not covered by the paper's general results.
	Unknown
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Tractable:
		return "tractable"
	case Intractable:
		return "intractable"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Result is a classification outcome with its justification.
type Result struct {
	Verdict Verdict
	// Reason cites the paper result that produced the verdict.
	Reason string
	// Hypotheses lists the complexity assumptions a hardness verdict rests
	// on ("mat-mul", "hyperclique", "4-clique").
	Hypotheses []string
	// Certificate is the executable free-connexity witness, when the
	// verdict is Tractable and the search produced one.
	Certificate *core.Certificate
	// Reduced is the non-redundant union actually classified (contained
	// CQs removed, per Example 1); nil when nothing was removed.
	Reduced *cq.UCQ
}

// ClassifyUCQ classifies a union of conjunctive queries.
func ClassifyUCQ(u *cq.UCQ) (*Result, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}

	// Step 0: reduce to a non-redundant union (Example 1): a CQ contained
	// in another contributes nothing and can hide tractability.
	work := u
	if reduced := homomorphism.RemoveRedundant(u); len(reduced.CQs) != len(u.CQs) {
		res.Reduced = reduced
		work = reduced
	}

	// Lower bounds assume self-join-free CQs; the cheap structural
	// dichotomies run before the (potentially expensive) certificate
	// search — they are mutually exclusive with certificates under the
	// paper's hypotheses.
	sjf := work.SelfJoinFree()

	classes := make([]CQClass, len(work.CQs))
	allIntractable := true
	for i, q := range work.CQs {
		classes[i] = ClassifyCQ(q)
		if classes[i] == FreeConnex {
			allIntractable = false
		}
	}

	if sjf {
		// Step 1: body-isomorphic unions — the Theorem 29/33/35 guard
		// dichotomies decide most of these outright.
		if r := bodyIsomorphicUnion(work, classes); r != nil {
			return finish(res, r), nil
		}
		// Step 2: Lemma 14 / Lemma 15 — an intractable CQ that no other CQ
		// maps into (or only body-isomorphic CQs map into, for cyclic ones)
		// makes the union intractable.
		if r := lemma1415(work, classes); r != nil {
			return finish(res, r), nil
		}
		// Step 3: Theorem 17 — unions of intractable CQs without a
		// body-isomorphic acyclic pair.
		if allIntractable && !hasBodyIsomorphicAcyclicPair(work, classes) {
			res.Verdict = Intractable
			res.Reason = "union of intractable CQs with no body-isomorphic acyclic pair (Theorem 17)"
			res.Hypotheses = []string{"mat-mul", "hyperclique"}
			return res, nil
		}
	}

	// Step 4: upper bound — free-connex UCQs are in DelayClin (Theorem 12;
	// Theorem 4 is the all-free-connex special case).
	if cert, ok := core.FindCertificate(work, nil); ok {
		res.Verdict = Tractable
		res.Certificate = cert
		if cert.TotalVirtualAtoms() == 0 {
			res.Reason = "all CQs free-connex (Theorem 4)"
		} else {
			res.Reason = "free-connex UCQ via union extensions (Theorem 12)"
		}
		return res, nil
	}

	res.Verdict = Unknown
	if sjf {
		res.Reason = "not covered by the paper's general theorems (Section 5 discusses such cases)"
	} else {
		res.Reason = "contains self-joins: the paper's lower-bound machinery does not apply"
	}
	return res, nil
}

// finish merges a step result into the base result (preserving the
// redundancy-reduction note).
func finish(base, step *Result) *Result {
	step.Reduced = base.Reduced
	return step
}

// lemma1415 applies the Lemma 14 and Lemma 15 reductions.
func lemma1415(u *cq.UCQ, classes []CQClass) *Result {
	for i, qi := range u.CQs {
		if classes[i] == FreeConnex {
			continue
		}
		noHom := true
		onlyIsoOrNoHom := true
		for j, qj := range u.CQs {
			if i == j {
				continue
			}
			if homomorphism.ExistsBodyHomomorphism(qj, qi) {
				noHom = false
				if !homomorphism.BodyIsomorphic(qi, qj) {
					onlyIsoOrNoHom = false
				}
			}
		}
		if noHom {
			hyp := "mat-mul"
			if classes[i] == Cyclic {
				hyp = "hyperclique"
			}
			return &Result{
				Verdict: Intractable,
				Reason: fmt.Sprintf("%s is intractable and no other CQ has a body-homomorphism into it, so Enum⟨%s⟩ ≤e Enum⟨Q⟩ (Lemma 14)",
					u.CQs[i].Name, u.CQs[i].Name),
				Hypotheses: []string{hyp},
			}
		}
		if classes[i] == Cyclic && onlyIsoOrNoHom {
			return &Result{
				Verdict: Intractable,
				Reason: fmt.Sprintf("%s is cyclic and only body-isomorphic CQs map into it, so Decide⟨Q⟩ is not linear-time (Lemma 15, Theorem 3)",
					u.CQs[i].Name),
				Hypotheses: []string{"hyperclique"},
			}
		}
	}
	return nil
}

func hasBodyIsomorphicAcyclicPair(u *cq.UCQ, classes []CQClass) bool {
	for i := range u.CQs {
		if classes[i] == Cyclic {
			continue
		}
		for j := i + 1; j < len(u.CQs); j++ {
			if classes[j] == Cyclic {
				continue
			}
			if homomorphism.BodyIsomorphic(u.CQs[i], u.CQs[j]) {
				return true
			}
		}
	}
	return false
}

// bodyIsomorphicUnion handles unions in which all CQs are pairwise
// body-isomorphic, applying Theorem 29 (two CQs), Theorem 33 and Theorem 35
// (n CQs). Tractable verdicts attach an executable certificate when the
// bounded search finds one (the theorems guarantee existence; the search
// bound may still cut it off, which the Reason then notes).
func bodyIsomorphicUnion(u *cq.UCQ, classes []CQClass) *Result {
	rewritten, ok := RewriteBodyIsomorphic(u)
	if !ok {
		return nil
	}
	if classes[0] == Cyclic {
		// All cyclic (isomorphic bodies): Theorem 17 territory.
		return nil
	}

	tractable := func(reason string) *Result {
		r := &Result{Verdict: Tractable, Reason: reason}
		if cert, ok := core.FindCertificate(u, nil); ok {
			r.Certificate = cert
		} else {
			r.Reason += "; certificate search exceeded its bounds, evaluation falls back to the naive engine"
		}
		return r
	}

	if len(u.CQs) == 2 {
		// Theorem 29 dichotomy.
		g1 := FreePathGuarded(rewritten, 0, 1)
		g2 := FreePathGuarded(rewritten, 1, 0)
		b1 := BypassGuarded(rewritten, 0, 1)
		b2 := BypassGuarded(rewritten, 1, 0)
		if g1 && g2 && b1 && b2 {
			return tractable("two body-isomorphic acyclic CQs, free-path and bypass guarded: free-connex (Theorem 29, Lemma 28)")
		}
		var why []string
		hyp := map[string]bool{}
		if !g1 || !g2 {
			why = append(why, "a free-path is not guarded (Lemma 25)")
			hyp["mat-mul"] = true
		}
		if (g1 && g2) && (!b1 || !b2) {
			why = append(why, "free-path guarded but not bypass guarded (Lemma 26)")
			hyp["4-clique"] = true
		}
		var hyps []string
		for _, h := range []string{"mat-mul", "4-clique"} {
			if hyp[h] {
				hyps = append(hyps, h)
			}
		}
		return &Result{
			Verdict:    Intractable,
			Reason:     "two body-isomorphic acyclic CQs: " + strings.Join(why, "; ") + " (Theorem 29)",
			Hypotheses: hyps,
		}
	}

	// n ≥ 3 body-isomorphic acyclic CQs: Theorems 33 and 35.
	unguarded := false
	allIsolated := true
	for i := range rewritten.Frees {
		for _, p := range rewritten.FreePathsOf(i) {
			if !UnionGuarded(rewritten, p) {
				unguarded = true
			}
			if !Isolated(rewritten, i, p) {
				allIsolated = false
			}
		}
	}
	if unguarded {
		return &Result{
			Verdict:    Intractable,
			Reason:     "union of body-isomorphic acyclic CQs with a free-path that is not union guarded (Theorem 33)",
			Hypotheses: []string{"mat-mul"},
		}
	}
	if allIsolated {
		return tractable("every free-path union guarded and isolated (Theorem 35)")
	}
	// Union guarded but not isolated: outside Theorems 33/35; a union
	// extension may still exist, so consult the certificate search before
	// giving up (Example 31 remains Unknown, as the paper leaves it).
	if cert, ok := core.FindCertificate(u, nil); ok {
		return &Result{
			Verdict:     Tractable,
			Reason:      "free-connex UCQ via union extensions (Theorem 12)",
			Certificate: cert,
		}
	}
	return &Result{
		Verdict: Unknown,
		Reason:  "body-isomorphic union with union-guarded but non-isolated free-paths: open (Section 5.1, Example 31)",
	}
}
