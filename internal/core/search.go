package core

import (
	"sort"

	"repro/internal/cq"
	"repro/internal/hypergraph"
)

// SearchOptions bounds the certificate search. Definition 11 is recursive
// and the paper gives no decision procedure (the general dichotomy is
// open), so the search explores a bounded but generously sized space; it is
// sound (returned certificates verify) and complete for every example in
// the paper at the defaults.
type SearchOptions struct {
	// MaxVirtualAtoms bounds the virtual atoms added per CQ (default 3).
	MaxVirtualAtoms int
	// MaxRounds bounds the provider-fixpoint rounds (default 2·|CQs| + 2).
	MaxRounds int
	// MaxCandidates caps the candidate pool considered per CQ when
	// combining more than two virtual atoms (default 160). Large unions
	// with rich homomorphism structure can generate hundreds of providable
	// sets; the cap keeps the combination search polynomial while a
	// free-path-aware ranking keeps the useful candidates in the pool.
	MaxCandidates int
}

func (o *SearchOptions) defaults(n int) SearchOptions {
	out := SearchOptions{MaxVirtualAtoms: 3, MaxRounds: 2*n + 2, MaxCandidates: 160}
	if o != nil {
		if o.MaxVirtualAtoms > 0 {
			out.MaxVirtualAtoms = o.MaxVirtualAtoms
		}
		if o.MaxRounds > 0 {
			out.MaxRounds = o.MaxRounds
		}
		if o.MaxCandidates > 0 {
			out.MaxCandidates = o.MaxCandidates
		}
	}
	return out
}

// FindCertificate searches for a free-connexity certificate for the union
// (Definition 11). It returns (certificate, true) on success; the
// certificate always passes Verify. A false result means the bounded search
// found no certificate — the union may still be free-connex beyond the
// bounds, or genuinely intractable (internal/classify combines this search
// with the paper's lower bounds).
func FindCertificate(u *cq.UCQ, opts *SearchOptions) (*Certificate, bool) {
	cert, ok := search(u, opts)
	if !ok || cert.Verify(u) != nil {
		// The search only assembles justified atoms, so a failed Verify is
		// a bug guard, not a reachable path.
		return nil, false
	}
	return cert, true
}

// Certify searches for a certificate of u and compiles it, the one call
// Prepare makes: Compile verifies the certificate, so it is verified once.
// ok is false when the bounded search finds no certificate; an error means
// one was found but failed to verify or compile.
func Certify(u *cq.UCQ, opts *SearchOptions) (c *CompiledUnion, ok bool, err error) {
	cert, ok := search(u, opts)
	if !ok {
		return nil, false, nil
	}
	if c, err = Compile(u, cert); err != nil {
		return nil, false, err
	}
	return c, true, nil
}

// search is FindCertificate without the closing Verify.
func search(u *cq.UCQ, opts *SearchOptions) (*Certificate, bool) {
	if err := u.Validate(); err != nil {
		return nil, false
	}
	o := opts.defaults(len(u.CQs))
	n := len(u.CQs)
	hc := newHomCache(u)

	ext := make([]*ExtendedCQ, n)
	done := make([]bool, n)
	for i := range ext {
		ext[i] = plainSnapshot(u, i)
		done[i] = ext[i].IsFreeConnex()
	}

	for round := 0; round < o.MaxRounds; round++ {
		allDone := true
		changed := false
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			cands := generateCandidates(u, ext, hc, i)
			cands = prioritizeCandidates(u.CQs[i], cands, o.MaxCandidates)
			if trial, ok := searchExtension(u.CQs[i], i, cands, o.MaxVirtualAtoms); ok {
				ext[i] = trial
				done[i] = true
				changed = true
			} else {
				allDone = false
			}
		}
		if allDone {
			return &Certificate{Extensions: ext}, true
		}
		if !changed {
			break
		}
	}
	return nil, false
}

// candidateAtom is a justified variable set addable to a target CQ.
type candidateAtom struct {
	vars []cq.Variable // sorted distinct, ≥ 2 variables
	prov Provision
}

// generateCandidates computes every providable variable set for target CQ i
// (Definition 7): for each provider j, each body-homomorphism h from Qj to
// Qi, and each S ⊆ free(Qj) making the provider snapshot S-connex, every
// subset of h(S) with at least two variables is providable. Provider
// snapshots considered are the plain base CQ and the current extension of
// Qj (Definition 10's recursive case).
func generateCandidates(u *cq.UCQ, ext []*ExtendedCQ, hc *homCache, i int) []candidateAtom {
	var out []candidateAtom
	seen := make(map[string]bool)
	targetEdges := hypergraph.FromCQ(u.CQs[i])

	for j := range u.CQs {
		homs := hc.homs(j, i)
		if len(homs) == 0 {
			continue
		}
		snaps := []*ExtendedCQ{plainSnapshot(u, j)}
		if len(ext[j].Virtuals) > 0 {
			snaps = append(snaps, ext[j])
		}
		freeVars := u.CQs[j].Free().Sorted()
		for _, snap := range snaps {
			ph := hypergraph.FromCQ(snap.Query())
			if !ph.IsAcyclic() {
				continue
			}
			for _, h := range homs {
				// Enumerate S ⊆ free(Qj) by bitmask; collect images of
				// S-connex sets.
				for mask := 1; mask < 1<<len(freeVars); mask++ {
					s := make(cq.VarSet)
					for b, v := range freeVars {
						if mask&(1<<b) != 0 {
							s[v] = true
						}
					}
					if !ph.WithEdge(s).IsAcyclic() {
						continue
					}
					image := h.ApplySet(s)
					// All subsets of the image are providable; skip those
					// already covered by an edge of the target (adding a
					// sub-edge never changes the structure).
					for _, w := range subsets(image.Sorted()) {
						if len(w) < 2 {
							continue
						}
						ws := cq.NewVarSet(w...)
						key := ws.String()
						if seen[key] || targetEdges.HasEdgeCovering(ws) {
							continue
						}
						seen[key] = true
						out = append(out, candidateAtom{
							vars: w,
							prov: Provision{
								ProviderIndex: j,
								Provider:      snap,
								Hom:           h,
								S:             s.Clone(),
							},
						})
					}
				}
			}
		}
	}
	return out
}

// prioritizeCandidates ranks the candidate pool and truncates it to the
// cap. Candidates covering more free-path variables of the target rank
// first (those are the structures an extension must fix), larger sets
// before smaller, ties broken deterministically by variable names.
func prioritizeCandidates(target *cq.CQ, cands []candidateAtom, cap int) []candidateAtom {
	if len(cands) <= cap {
		return cands
	}
	pathVars := make(cq.VarSet)
	h := hypergraph.FromCQ(target)
	for _, p := range hypergraph.FreePaths(h, target.Free()) {
		pathVars.AddAll(p.VarSet())
	}
	score := func(c candidateAtom) int {
		s := 0
		for _, v := range c.vars {
			if pathVars[v] {
				s += 4
			}
		}
		return s*8 + len(c.vars)
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	key := func(c candidateAtom) string {
		out := ""
		for _, v := range c.vars {
			out += string(v) + ","
		}
		return out
	}
	sortSlice(order, func(a, b int) bool {
		sa, sb := score(cands[a]), score(cands[b])
		if sa != sb {
			return sa > sb
		}
		return key(cands[a]) < key(cands[b])
	})
	out := make([]candidateAtom, cap)
	for i := 0; i < cap; i++ {
		out[i] = cands[order[i]]
	}
	return out
}

// sortSlice is sort.Slice without the interface allocation noise at the
// call sites above.
func sortSlice(order []int, less func(a, b int) bool) {
	sort.Slice(order, func(i, j int) bool { return less(order[i], order[j]) })
}

// subsets enumerates all subsets of vars preserving sorted order.
func subsets(vars []cq.Variable) [][]cq.Variable {
	n := len(vars)
	out := make([][]cq.Variable, 0, 1<<n)
	for mask := 1; mask < 1<<n; mask++ {
		var w []cq.Variable
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				w = append(w, vars[b])
			}
		}
		out = append(out, w)
	}
	return out
}

// searchExtension looks for ≤ maxAtoms candidates whose addition makes the
// target free-connex, trying smaller extensions first.
func searchExtension(base *cq.CQ, baseIndex int, cands []candidateAtom, maxAtoms int) (*ExtendedCQ, bool) {
	free := base.Free()
	build := func(chosen []int) *ExtendedCQ {
		e := &ExtendedCQ{BaseIndex: baseIndex, Base: base.Clone()}
		for k, ci := range chosen {
			c := cands[ci]
			e.Virtuals = append(e.Virtuals, VirtualAtom{
				Atom: cq.Atom{
					Rel:     FreshSymbol(baseIndex, k),
					Vars:    append([]cq.Variable(nil), c.vars...),
					Virtual: true,
				},
				Prov: c.prov,
			})
		}
		return e
	}
	isFC := func(chosen []int) bool {
		e := build(chosen)
		q := e.Query()
		return hypergraph.FromCQ(q).IsSConnex(free)
	}

	var chosen []int
	for budget := 0; budget <= maxAtoms; budget++ {
		chosen = chosen[:0]
		if recBudget(&chosen, cands, isFC, budget) {
			return build(chosen), true
		}
	}
	return nil, false
}

// recBudget searches for a subset of exactly `budget` candidates (by
// increasing first-index) satisfying ok.
func recBudget(chosen *[]int, cands []candidateAtom, ok func([]int) bool, budget int) bool {
	if budget == 0 {
		return ok(*chosen)
	}
	start := 0
	if len(*chosen) > 0 {
		start = (*chosen)[len(*chosen)-1] + 1
	}
	for ci := start; ci < len(cands); ci++ {
		*chosen = append(*chosen, ci)
		if recBudget(chosen, cands, ok, budget-1) {
			return true
		}
		*chosen = (*chosen)[:len(*chosen)-1]
	}
	return false
}
