package core

import (
	"fmt"
	"slices"

	"repro/internal/cq"
	"repro/internal/yannakakis"
)

// CompiledUnion is the query-only half of the Theorem 12 pipeline for a
// certified union: the certificate, verified once, one yannakakis shape
// per member extension and per distinct Lemma 8 provider run, and each
// member's half of the rank rule. Bind runs the relation passes of those
// shapes over an instance and nothing else.
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
	// ranks[i] says how member i's stream leaves out the answers of the
	// members ranked before it.
	ranks []rankRule
	// virtuals[k] are the compiled virtual atoms of the k-th extension an
	// instance is resolved for: the members first (k = i is member i), then
	// the provider snapshots reached through virtual atoms.
	virtuals [][]virtualShape
	// runs are the distinct Lemma 8 provider runs: one per provider
	// snapshot and S, however many virtual atoms read it.
	runs []providerRun
}

// maxCopies caps the filtered copies a member is enumerated as: the
// product, over the earlier members it is marked against, of the number
// of its tops carrying one (yannakakis Plan.Minus). A copy may hold as
// many rows as the member's plan, so the cap bounds what the copies add to
// a bound member at maxCopies times its top relations. An earlier member
// that would pass the cap is probed per answer instead.
const maxCopies = 8

// rankRule is member i's half of the rank rule — it emits an answer only
// if no member j < i contains it — split by how each j is left out. The
// members in marked are covered (yannakakis Shape.Cover, covers parallel):
// Bind marks member i's rows against them once and enumerates i as the
// copies of its tree that avoid them, at most copies of them. The members
// in probed are tested per answer (ContainsHead).
type rankRule struct {
	marked []int
	covers []*yannakakis.Cover
	copies int
	probed []int
}

// providerRun is one Lemma 8 provider run, compiled: the provider
// snapshot's shape with S = prov.S, and the virtual atoms it instantiates.
type providerRun struct {
	// prov is the provider snapshot's position in CompiledUnion.virtuals.
	prov  int
	shape *yannakakis.Shape
	// feeds are the virtual atoms the run translates its S-tuples into,
	// as (extension, atom) positions in CompiledUnion.virtuals.
	feeds [][2]int
}

// virtualShape is one virtual atom, compiled: the provider run it reads
// and how a provider S-tuple translates into a row of its relation.
type virtualShape struct {
	rel string
	// run is the provider run's position in CompiledUnion.runs, and feed
	// this atom's position in the run's feeds.
	run, feed int
	// preimages[k] lists the ids, in the run's shape, of the provider
	// variables v2 ∈ S with h(v2) equal to the k-th provided variable;
	// their values must agree for a provider answer to translate (the
	// µ(h⁻¹(v1)) of Lemma 8).
	preimages [][]int
	// injective is true when every S variable lands in the row, so that
	// distinct S-tuples translate to distinct rows.
	injective bool
}

// runKey names a provider run: its snapshot's position and S.
type runKey struct {
	prov int
	s    string
}

// Compile verifies the certificate against the union and compiles every
// shape its Theorem 12 evaluation binds: one per member extension, and one
// per distinct provider run — virtual atoms that read the same provider
// snapshot with the same S share it. It fails when the certificate does not
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
	// plain[b] is the position of the snapshot that is CQ b alone.
	plain := make(map[int]int)
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
		if len(e.Virtuals) == 0 {
			plain[e.BaseIndex] = i
		}
	}
	c.compileRanks()
	// Compiling a virtual atom may reach a new provider snapshot, which is
	// appended and compiled in turn.
	c.virtuals = make([][]virtualShape, len(exts))
	runs := make(map[runKey]int)
	for k := 0; k < len(exts); k++ {
		for _, va := range exts[k].Virtuals {
			prov := va.Prov
			pk, ok := index[prov.Provider]
			if !ok && len(prov.Provider.Virtuals) == 0 {
				pk, ok = plain[prov.Provider.BaseIndex]
			}
			if !ok {
				pk = len(exts)
				index[prov.Provider] = pk
				if len(prov.Provider.Virtuals) == 0 {
					plain[prov.Provider.BaseIndex] = pk
				}
				exts = append(exts, prov.Provider)
				c.virtuals = append(c.virtuals, nil)
			}
			key := runKey{pk, prov.S.String()}
			r, ok := runs[key]
			if !ok {
				sh, err := c.compileRun(va, pk)
				if err != nil {
					return nil, err
				}
				r = len(c.runs)
				runs[key] = r
				c.runs = append(c.runs, providerRun{prov: pk, shape: sh})
			}
			v, err := compileVirtual(va, r, c.runs[r].shape)
			if err != nil {
				return nil, err
			}
			v.feed = len(c.runs[r].feeds)
			c.runs[r].feeds = append(c.runs[r].feeds, [2]int{k, len(c.virtuals[k])})
			c.virtuals[k] = append(c.virtuals[k], v)
		}
	}
	return c, nil
}

// compileRanks splits each member's rank rule: an earlier member is marked
// against when the member's tops cover its tops and the copies stay within
// maxCopies, and probed otherwise.
func (c *CompiledUnion) compileRanks() {
	c.ranks = make([]rankRule, len(c.members))
	for i, sh := range c.members {
		r := &c.ranks[i]
		r.copies = 1
		for j := range i {
			if cov := sh.Cover(c.members[j]); cov != nil && r.copies*cov.Carriers() <= maxCopies {
				r.marked = append(r.marked, j)
				r.covers = append(r.covers, cov)
				r.copies *= cov.Carriers()
				continue
			}
			r.probed = append(r.probed, j)
		}
	}
}

// compileRun compiles the shape of va's provider run over the snapshot at
// position pk. A run over a member's own extension with S = free
// enumerates exactly what that member does: it shares the member's shape.
func (c *CompiledUnion) compileRun(va VirtualAtom, pk int) (*yannakakis.Shape, error) {
	prov := va.Prov
	if pk < len(c.members) && prov.S.Equal(prov.Provider.Base.Free()) {
		return c.members[pk], nil
	}
	pq := prov.Provider.compiledQuery()
	sh, err := yannakakis.Compile(pq, prov.S)
	if err != nil {
		return nil, fmt.Errorf("core: compiling provider %s: %w", pq.Name, err)
	}
	prov.Provider.markImplied(sh)
	return sh, nil
}

// compileVirtual compiles one virtual atom read from provider run r, whose
// shape is sh.
func compileVirtual(va VirtualAtom, r int, sh *yannakakis.Shape) (virtualShape, error) {
	v := virtualShape{rel: va.Atom.Rel, run: r, preimages: make([][]int, len(va.Atom.Vars))}
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
