package core

import (
	"fmt"
	"slices"

	"repro/internal/cq"
	"repro/internal/yannakakis"
)

// CompiledUnion is the query-only half of the Theorem 12 pipeline for a
// certified union: the certificate, verified once, and one yannakakis
// shape per member extension and per Lemma 8 provider run. Bind runs the
// relation passes of those shapes over an instance and nothing else.
//
// A CompiledUnion is read-only once Compile returns, so any number of
// goroutines may Bind it concurrently, each to its own instance — the
// prepared-plan reuse a long-lived server depends on.
type CompiledUnion struct {
	U    *cq.UCQ
	Cert *Certificate

	// members are the member extensions' shapes with S = free, parallel
	// to Cert.Extensions.
	members []*yannakakis.Shape
	// virtuals[k] are the compiled virtual atoms of the k-th extension an
	// instance is resolved for: the members first (k = i is member i), then
	// the provider snapshots reached through virtual atoms.
	virtuals [][]virtualShape
}

// virtualShape is one virtual atom's Lemma 8 provider run, compiled: the
// provider snapshot's shape with S = prov.S, and how a provider S-tuple
// translates into a row of the virtual relation.
type virtualShape struct {
	rel string
	// prov is the provider snapshot's position in CompiledUnion.virtuals.
	prov  int
	shape *yannakakis.Shape
	// preimages[k] lists the ids, in shape, of the provider variables
	// v2 ∈ S with h(v2) equal to the k-th provided variable; their values
	// must agree for a provider answer to translate (the µ(h⁻¹(v1)) of
	// Lemma 8).
	preimages [][]int
	// injective is true when every S variable lands in the row, so that
	// distinct S-tuples translate to distinct rows.
	injective bool
}

// Compile verifies the certificate against the union and compiles every
// shape its Theorem 12 evaluation binds: one per member extension, and one
// per virtual atom's provider run. It fails when the certificate does not
// verify, or when a member does not enumerate exactly its head variables —
// the rank rule dedups by probing member plans with head tuples, and a
// plan that cannot answer would let duplicates through.
func Compile(u *cq.UCQ, cert *Certificate) (*CompiledUnion, error) {
	if err := cert.Verify(u); err != nil {
		return nil, err
	}
	c := &CompiledUnion{U: u, Cert: cert}
	exts := slices.Clone(cert.Extensions)
	index := make(map[*ExtendedCQ]int)
	for i, e := range cert.Extensions {
		sh, err := yannakakis.Compile(e.compiledQuery(), nil)
		if err != nil {
			return nil, fmt.Errorf("core: compiling %s: %w", e.Base.Name, err)
		}
		if !sh.HeadTestable() {
			return nil, fmt.Errorf("core: member %s does not enumerate exactly its head variables; membership is undecidable from an answer", e.Base.Name)
		}
		e.markImplied(sh)
		c.members = append(c.members, sh)
		index[e] = i
	}
	// Compiling a virtual atom may reach a new provider snapshot, which is
	// appended and compiled in turn.
	c.virtuals = make([][]virtualShape, len(exts))
	for k := 0; k < len(exts); k++ {
		for _, va := range exts[k].Virtuals {
			prov := va.Prov
			pk, ok := index[prov.Provider]
			if !ok && len(prov.Provider.Virtuals) == 0 && len(cert.Extensions[prov.Provider.BaseIndex].Virtuals) == 0 {
				// Both are the plain CQ: the same extension.
				pk, ok = prov.Provider.BaseIndex, true
			}
			if !ok {
				pk = len(exts)
				index[prov.Provider] = pk
				exts = append(exts, prov.Provider)
				c.virtuals = append(c.virtuals, nil)
			}
			// A provider run over a member's own extension with S = free
			// enumerates exactly what that member does: it shares the shape.
			var sh *yannakakis.Shape
			if pk < len(c.members) && prov.S.Equal(prov.Provider.Base.Free()) {
				sh = c.members[pk]
			}
			v, err := compileVirtual(va, pk, sh)
			if err != nil {
				return nil, err
			}
			c.virtuals[k] = append(c.virtuals[k], v)
		}
	}
	return c, nil
}

// compileVirtual compiles one virtual atom's provider run, over the
// provider's shape sh when it is already compiled.
func compileVirtual(va VirtualAtom, prov int, sh *yannakakis.Shape) (virtualShape, error) {
	if sh == nil {
		pq := va.Prov.Provider.compiledQuery()
		var err error
		if sh, err = yannakakis.Compile(pq, va.Prov.S); err != nil {
			return virtualShape{}, fmt.Errorf("core: compiling provider %s: %w", pq.Name, err)
		}
		va.Prov.Provider.markImplied(sh)
	}
	v := virtualShape{rel: va.Atom.Rel, prov: prov, shape: sh,
		preimages: make([][]int, len(va.Atom.Vars))}
	mapped := 0
	for k, v1 := range va.Atom.Vars {
		for _, v2 := range sh.SVars {
			if va.Prov.Hom.Apply(v2) == v1 {
				v.preimages[k] = append(v.preimages[k], sh.VarID(v2))
			}
		}
		if len(v.preimages[k]) == 0 {
			return virtualShape{}, fmt.Errorf("core: provided variable %s has no preimage in S", v1)
		}
		mapped += len(v.preimages[k])
	}
	v.injective = mapped == len(sh.SVars)
	return v, nil
}

// markImplied marks the absorptions in sh, the shape of e's compiled
// query, that a Lemma 8 provider already guarantees: base atom A into
// virtual atom V, where some atom B of V's provider body has A's relation
// and arity, the body-homomorphism maps B's variables positionally onto
// A's, and every variable of B is in the provider's S. Sound on every
// instance, a delta overlay included: the provider run and the consumer
// read A's relation from the same instance, and each row of V is a
// provider answer µ translated, so at A's variables it reads µ(B) — a row
// of that relation agreeing on A's repeated variables. A's working
// relation is that relation projected (it absorbed nothing), so V ⋉ A = V.
func (e *ExtendedCQ) markImplied(sh *yannakakis.Shape) {
	if len(e.Virtuals) == 0 {
		return
	}
	nb := len(e.Base.Atoms)
	sh.MarkImplied(func(a, v int) bool {
		return a < nb && v >= nb && e.Virtuals[v-nb].Prov.implies(e.Base.Atoms[a])
	})
}

// implies reports whether every row a Lemma 8 run of p translates
// satisfies atom a: some base atom b of the provider has a's relation and
// arity, h maps b's variables positionally onto a's, and all of them are
// in S, so the row holds µ(b) at a's positions.
func (p *Provision) implies(a cq.Atom) bool {
	for _, b := range p.Provider.Base.Atoms {
		if b.Rel != a.Rel || len(b.Vars) != len(a.Vars) {
			continue
		}
		onto := true
		for k, v := range b.Vars {
			onto = onto && p.S[v] && p.Hom.Apply(v) == a.Vars[k]
		}
		if onto {
			return true
		}
	}
	return false
}

// compiledQuery is the extended query a shape keeps for as long as its
// prepared query is cached. It shares the certificate's atoms and their
// variable lists, which are read-only, instead of copying them as Query
// does: a plain extension is its base.
func (e *ExtendedCQ) compiledQuery() *cq.CQ {
	if len(e.Virtuals) == 0 {
		return e.Base
	}
	q := *e.Base
	q.Atoms = make([]cq.Atom, 0, len(e.Base.Atoms)+len(e.Virtuals))
	q.Atoms = append(q.Atoms, e.Base.Atoms...)
	for _, va := range e.Virtuals {
		q.Atoms = append(q.Atoms, va.Atom)
	}
	return &q
}
