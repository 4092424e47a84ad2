// Package core implements the paper's primary contribution: provided
// variable sets (Definition 7), union extensions (Definition 10),
// free-connex UCQs (Definition 11), certificate search for tractability,
// and the Theorem 12 enumeration pipeline that evaluates a certified UCQ
// with linear preprocessing and constant delay.
//
// A certificate assigns each CQ of the union an extended query: the
// original body plus virtual atoms, each justified by a provision — a
// body-homomorphism from a provider CQ (or a snapshot of one of its own
// union extensions, the definition being recursive) together with an
// S-connex witness set. Certificates are machine-checkable (Verify) and
// executable (Compile, then CompiledUnion.Bind).
package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/cq"
	"repro/internal/homomorphism"
	"repro/internal/hypergraph"
)

// Provision justifies one virtual atom, following Definition 7: the
// provider's answers, projected and translated through a body-homomorphism,
// cover every value combination the target's variables can take.
type Provision struct {
	// ProviderIndex is the provider CQ's position in the UCQ.
	ProviderIndex int
	// Provider is the snapshot of the provider's union extension used for
	// the S-connexity requirement (Definition 10 allows providers to be
	// union extensions themselves; an empty-Virtuals snapshot is the plain
	// CQ).
	Provider *ExtendedCQ
	// Hom is the body-homomorphism h from the provider's original body to
	// the target's original body.
	Hom cq.Substitution
	// S satisfies V2 ⊆ S ⊆ free(provider) with the provider snapshot
	// S-connex, where V2 = {v ∈ S : h(v) ∈ V1}.
	S cq.VarSet
}

// VirtualAtom is an auxiliary atom of a union extension with its
// justification.
type VirtualAtom struct {
	// Atom carries a fresh relation symbol and the provided variables V1
	// (distinct, in canonical sorted order) as arguments; Atom.Virtual is
	// always true.
	Atom cq.Atom
	Prov Provision
}

// ExtendedCQ is a union extension Q⁺ of a base CQ: the base plus virtual
// atoms (Definition 10).
type ExtendedCQ struct {
	// BaseIndex is the base CQ's position in the UCQ.
	BaseIndex int
	// Base is the original CQ.
	Base *cq.CQ
	// Virtuals are the added atoms, in the order they must be instantiated.
	Virtuals []VirtualAtom
}

// Query materialises the extended query: base atoms followed by virtual
// atoms.
func (e *ExtendedCQ) Query() *cq.CQ {
	q := e.Base.Clone()
	for _, va := range e.Virtuals {
		q.Atoms = append(q.Atoms, va.Atom.Clone())
	}
	return q
}

// TouchesRelations reports whether the extension's answers can change
// when the named relations change: true when its base body — or,
// transitively, any provider snapshot behind its virtual atoms —
// references one of them. A branch whose whole relation footprint is
// disjoint from names enumerates identical answers at both versions of an
// append delta, so delta maintenance skips it.
func (e *ExtendedCQ) TouchesRelations(names map[string]struct{}) bool {
	for _, a := range e.Base.Atoms {
		if a.Virtual {
			continue
		}
		if _, ok := names[a.Rel]; ok {
			return true
		}
	}
	for _, va := range e.Virtuals {
		if va.Prov.Provider != nil && va.Prov.Provider.TouchesRelations(names) {
			return true
		}
	}
	return false
}

// IsFreeConnex reports whether the extended query is free-connex.
func (e *ExtendedCQ) IsFreeConnex() bool {
	q := e.Query()
	return hypergraph.FromCQ(q).IsSConnex(q.Free())
}

// Clone deep-copies the extension (provider snapshots are shared: they are
// immutable once built).
func (e *ExtendedCQ) Clone() *ExtendedCQ {
	out := &ExtendedCQ{BaseIndex: e.BaseIndex, Base: e.Base.Clone()}
	out.Virtuals = append(out.Virtuals, e.Virtuals...)
	return out
}

// String renders the extension as its query.
func (e *ExtendedCQ) String() string { return e.Query().String() }

// Certificate witnesses that a UCQ is free-connex (Definition 11): one
// free-connex union extension per CQ.
type Certificate struct {
	// Extensions is parallel to the UCQ's CQ list.
	Extensions []*ExtendedCQ
}

// TotalVirtualAtoms counts virtual atoms across all extensions (not
// counting provider snapshots).
func (c *Certificate) TotalVirtualAtoms() int {
	n := 0
	for _, e := range c.Extensions {
		n += len(e.Virtuals)
	}
	return n
}

// String renders all extended queries.
func (c *Certificate) String() string {
	s := ""
	for i, e := range c.Extensions {
		if i > 0 {
			s += "\n"
		}
		s += e.String()
	}
	return s
}

// verifications counts Verify calls, so that tests can pin how often a
// Prepare pays for one.
var verifications atomic.Int64

// Verify checks the certificate against the union: every extension's base
// matches, every virtual atom's provision satisfies Definition 7 (with the
// provider snapshot recursively verified), and every extension is
// free-connex. A nil error means the UCQ is certified free-connex.
func (c *Certificate) Verify(u *cq.UCQ) error {
	verifications.Add(1)
	if len(c.Extensions) != len(u.CQs) {
		return fmt.Errorf("core: certificate covers %d CQs, union has %d", len(c.Extensions), len(u.CQs))
	}
	for i, e := range c.Extensions {
		if e == nil {
			return fmt.Errorf("core: missing extension for CQ %d", i)
		}
		if e.BaseIndex != i || e.Base.String() != u.CQs[i].String() {
			return fmt.Errorf("core: extension %d does not match its base CQ", i)
		}
		if err := verifyExtension(u, e); err != nil {
			return fmt.Errorf("core: extension %d (%s): %w", i, e.Base.Name, err)
		}
		if !e.IsFreeConnex() {
			return fmt.Errorf("core: extension %d (%s) is not free-connex", i, e.Base.Name)
		}
	}
	return nil
}

// verifyExtension checks each virtual atom's provision, recursively
// verifying provider snapshots (which need S-connexity, not
// free-connexity).
func verifyExtension(u *cq.UCQ, e *ExtendedCQ) error {
	seen := make(map[string]bool)
	for _, a := range e.Base.Atoms {
		seen[a.Rel] = true
	}
	for k, va := range e.Virtuals {
		if !va.Atom.Virtual {
			return fmt.Errorf("virtual atom %d not marked virtual", k)
		}
		if seen[va.Atom.Rel] {
			return fmt.Errorf("virtual atom %d reuses relation symbol %q", k, va.Atom.Rel)
		}
		seen[va.Atom.Rel] = true
		if err := verifyProvision(u, e.Base, va); err != nil {
			return fmt.Errorf("virtual atom %d (%s): %w", k, va.Atom, err)
		}
	}
	return nil
}

func verifyProvision(u *cq.UCQ, target *cq.CQ, va VirtualAtom) error {
	p := va.Prov
	if p.ProviderIndex < 0 || p.ProviderIndex >= len(u.CQs) {
		return fmt.Errorf("provider index %d out of range", p.ProviderIndex)
	}
	provider := u.CQs[p.ProviderIndex]
	if p.Provider == nil {
		return fmt.Errorf("missing provider snapshot")
	}
	if p.Provider.Base.String() != provider.String() {
		return fmt.Errorf("provider snapshot does not match CQ %d", p.ProviderIndex)
	}
	// (1) Hom is a body-homomorphism from the provider's original body to
	// the target's original body.
	if !isBodyHom(p.Hom, provider, target) {
		return fmt.Errorf("mapping is not a body-homomorphism from %s to %s", provider.Name, target.Name)
	}
	// (2)+(3) V2 = h⁻¹(V1) ∩ S satisfies h(V2) = V1, V2 ⊆ S ⊆ free(provider),
	// and the provider snapshot is S-connex.
	free := provider.Free()
	if !free.ContainsAll(p.S) {
		return fmt.Errorf("S %v not contained in free(%s)", p.S, provider.Name)
	}
	v1 := va.Atom.VarSet()
	if !target.Vars().ContainsAll(v1) {
		return fmt.Errorf("provided variables %v not in target", v1)
	}
	image := make(cq.VarSet)
	for v := range p.S {
		if v1[p.Hom.Apply(v)] {
			image[p.Hom.Apply(v)] = true
		}
	}
	if !image.Equal(v1) {
		return fmt.Errorf("h(V2) = %v does not equal V1 = %v", image, v1)
	}
	// The provider snapshot must itself be a valid extension and S-connex.
	if err := verifyExtension(u, p.Provider); err != nil {
		return fmt.Errorf("provider snapshot: %w", err)
	}
	pq := p.Provider.Query()
	if !hypergraph.FromCQ(pq).IsSConnex(p.S) {
		return fmt.Errorf("provider snapshot is not %v-connex", p.S)
	}
	return nil
}

// isBodyHom checks that h maps every original atom of `from` onto an
// original atom of `to`.
func isBodyHom(h cq.Substitution, from, to *cq.CQ) bool {
	for _, a := range from.OriginalAtoms() {
		found := false
		for _, b := range to.OriginalAtoms() {
			if b.Rel != a.Rel || len(b.Vars) != len(a.Vars) {
				continue
			}
			match := true
			for i := range a.Vars {
				if h.Apply(a.Vars[i]) != b.Vars[i] {
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
			return false
		}
	}
	return true
}

// FreshSymbol generates a deterministic fresh virtual relation symbol.
func FreshSymbol(cqIndex, atomIndex int) string {
	return fmt.Sprintf("_P%d_%d", cqIndex, atomIndex)
}

// canonicalVars returns the sorted distinct variables of a set.
func canonicalVars(s cq.VarSet) []cq.Variable {
	out := s.Sorted()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// plainSnapshot wraps a base CQ as an extension with no virtual atoms.
func plainSnapshot(u *cq.UCQ, i int) *ExtendedCQ {
	return &ExtendedCQ{BaseIndex: i, Base: u.CQs[i].Clone()}
}

// homCache caches body-homomorphism lists between CQ pairs.
type homCache struct {
	u *cq.UCQ
	m map[[2]int][]cq.Substitution
}

func newHomCache(u *cq.UCQ) *homCache {
	return &homCache{u: u, m: make(map[[2]int][]cq.Substitution)}
}

// from j to i.
func (hc *homCache) homs(j, i int) []cq.Substitution {
	key := [2]int{j, i}
	if hs, ok := hc.m[key]; ok {
		return hs
	}
	hs := homomorphism.BodyHomomorphisms(hc.u.CQs[j], hc.u.CQs[i])
	hc.m[key] = hs
	return hs
}
