// Package yannakakis implements the evaluation engine behind the paper's
// upper bounds: linear-time preprocessing and constant-delay enumeration for
// S-connex acyclic conjunctive queries (the CDY algorithm of Theorem 3(1)
// and Lemma 8, realised through a GYO-driven elimination plan).
//
// # How the plan works
//
// Planning has two halves. Compile(q, S) does everything that depends on
// the query alone, once: it checks S-connexity structurally (H(q) and
// H(q) ∪ {S} acyclic), assigns dense variable ids, and runs the GYO
// reduction of H(q) ∪ {S} with the S edge frozen, on the variables:
//
//   - a variable outside S occurring in exactly one alive atom is projected
//     out of that atom;
//   - an atom whose variables are contained in another alive atom's
//     variables is absorbed by it;
//   - an atom whose variables are contained in S becomes a top node.
//
// The moves are recorded as a step list with their column maps. The top
// nodes span exactly S and form an acyclic hypergraph; Compile builds their
// join tree, each edge's shared columns, the DFS order and the head-probe
// layout. The result, a Shape, is the ext-S-connex tree of Figure 1.
//
// (*Shape).Bind(I) is the other half, and it only runs relation passes: it
// binds each atom to its relation, replays the steps over the relations (a
// projection keeps its pre-projection relation for replay, an absorption
// semijoin-reduces the absorber), and runs a classical Yannakakis full
// reduction over the top join tree, building the per-node hash indexes a
// DFS enumerates the join of the tops with — which equals Q(I)|S — with
// constant delay and no duplicates.
//
// An enumerated S-tuple extends to a full homomorphism by replaying the
// elimination log backwards: each logged projection looks up one matching
// pre-projection row (constant time), exactly the extension step in the
// proof of Lemma 8. The index that lookup needs is built on the first
// Extend, not at Bind: enumerating head tuples never reads it.
//
// # What Bind copies and what it shares
//
// An atom without repeated variables over a relation that is a set (a fact
// the relation memoises) starts from an O(1) view of the stored rows; a bag
// or an R(x,x) atom is filtered and deduplicated into a copy. Each semijoin
// returns its input when nothing dangles and one exactly sized copy
// otherwise, so a row is copied only by a step that removes something next
// to it. A projection copies (its key table is the projected relation).
// Within the full reduction, the key set of a (relation, columns) pair is
// built once and shared by the bottom-up pass, the top-down pass and the
// DFS index for as long as that relation comes through unchanged; the
// membership tables behind ContainsHead hold slots only, over the top
// relations' own rows. A plan is therefore a snapshot that may share
// storage with the instance it was bound to: it relies on stored rows
// never being rewritten (see database.Relation) and is unaffected by rows
// appended afterwards.
package yannakakis

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/cq"
	"repro/internal/database"
)

// Plan is a shape bound to one instance. Binding costs O(‖I‖) for a fixed
// query; iteration yields one answer per O(1) steps.
type Plan struct {
	Q *cq.CQ
	// SVars is the enumeration variable set in sorted order; iterators
	// produce assignments over these variables (plus, after Extend, all
	// query variables).
	SVars []cq.Variable

	shape *Shape
	// headIDs caches the variable ids of the query head in head order, for
	// allocation-free head projection on the enumeration hot path.
	headIDs []int

	// proj holds one replay entry per projection step, in step order.
	proj []projection
	tops []topNode
	// order is the DFS pre-order over tops used by iterators.
	order []int
	// fullIndex[i] is the key set of top i on all columns — membership needs
	// no row lists — enabling the constant-time test Algorithm 1 relies on
	// ("tested in constant time after a linear time preprocessing phase").
	fullIndex []*database.KeySet
	// headProbe drives ContainsHead; nil unless S = var(head).
	headProbe *headProbe

	stats Stats
}

// Stats reports preprocessing counters, used by the experiment harness.
type Stats struct {
	// Projections is the number of logged variable eliminations.
	Projections int
	// Absorptions is the number of atom-into-atom absorptions.
	Absorptions int
	// Tops is the number of top nodes.
	Tops int
	// InputValues is ‖I‖ restricted to the query's relations.
	InputValues int
}

// Stats returns the plan's preprocessing counters.
func (p *Plan) Stats() Stats { return p.stats }

// projection is a projection step bound to its pre-projection relation,
// with the extension index the first Extend that replays it builds; plans
// are shared across goroutines, hence the Once.
type projection struct {
	step  *step
	pre   *database.Relation
	once  sync.Once
	index *database.Index
}

// extension returns the index of pre on the columns the projection kept.
func (e *projection) extension() *database.Index {
	e.once.Do(func() { e.index = e.pre.BuildIndex(e.step.cols) })
	return e.index
}

type topNode struct {
	varIDs []int
	rel    *database.Relation
	// parent in the top join tree (-1 for root), and the index/key vars
	// binding this node to its ancestors during DFS.
	parent    int
	index     *database.Index
	keyVarIDs []int
}

// Bind runs the shape's relation passes over inst: it binds the atoms,
// replays the elimination steps and fully reduces the tops. Errors are
// returned when a relation is missing or has the wrong arity.
func (sh *Shape) Bind(inst *database.Instance) (*Plan, error) {
	p := &Plan{Q: sh.Q, SVars: sh.SVars, shape: sh, headIDs: sh.headIDs,
		order: sh.order, headProbe: sh.headProbe,
		proj: make([]projection, sh.projections),
		tops: make([]topNode, len(sh.tops))}
	p.stats = Stats{Projections: sh.projections, Absorptions: sh.absorptions, Tops: len(sh.tops)}
	rels := make([]*database.Relation, len(sh.atoms))
	for i := range sh.atoms {
		r, err := sh.atoms[i].bind(inst)
		if err != nil {
			return nil, err
		}
		rels[i] = r
		p.stats.InputValues += r.Len() * r.Arity()
	}
	proj := p.proj
	for i := range sh.steps {
		st := &sh.steps[i]
		switch st.kind {
		case 'p':
			pre := rels[st.node]
			proj[0].step, proj[0].pre = st, pre
			proj = proj[1:]
			rels[st.node] = pre.Project(pre.Name, st.cols)
		case 'a':
			rels[st.into] = database.Semijoin(rels[st.into], st.cols, rels[st.node], sh.identity[:len(st.cols)])
		case 't':
			t := &sh.tops[st.top]
			p.tops[st.top] = topNode{varIDs: t.varIDs, rel: rels[st.node], parent: t.parent, keyVarIDs: t.keyVarIDs}
		}
	}
	p.reduce()
	return p, nil
}

// bind attaches the atom to its relation as a duplicate-free working
// relation over the atom's distinct variables. Without repeated variables
// and over a relation that is a set, that is a view of the stored rows;
// otherwise rows that disagree on repeated positions are filtered out and
// the rest deduplicated into a copy.
func (a *atomShape) bind(inst *database.Instance) (*database.Relation, error) {
	rel := inst.Relation(a.atom.Rel)
	if rel == nil {
		return nil, fmt.Errorf("yannakakis: no relation %q in the instance", a.atom.Rel)
	}
	if rel.Arity() != len(a.atom.Vars) {
		return nil, fmt.Errorf("yannakakis: atom %s has arity %d but relation has arity %d",
			a.atom, len(a.atom.Vars), rel.Arity())
	}
	if len(a.eq) == 0 && rel.IsSet() {
		return rel.View(), nil
	}
	work := rel
	if len(a.eq) > 0 {
		work = rel.Filter(func(t database.Tuple) bool {
			for _, e := range a.eq {
				if t[e[0]] != t[e[1]] {
					return false
				}
			}
			return true
		})
	}
	return work.Project(a.atom.Rel, a.cols), nil
}

// reduce runs the classical full reducer over the top join tree — a
// bottom-up then a top-down semijoin pass — and builds the per-node DFS
// indexes and the full-key membership tables.
func (p *Plan) reduce() {
	sh := p.shape
	// A semijoin hands back the same relation when nothing dangles, so the
	// key sets are remembered per (relation, columns): a child that the
	// top-down pass leaves whole is indexed below on the key set the
	// bottom-up pass built over it.
	keys := make(keySetCache, 0, 2*len(sh.tops))
	for _, i := range sh.post {
		t := &sh.tops[i]
		if t.parent < 0 {
			continue
		}
		par := &p.tops[t.parent]
		par.rel = database.SemijoinKeys(par.rel, t.parentCols, keys.get(p.tops[i].rel, t.cols))
	}
	for k := len(sh.post) - 1; k >= 0; k-- {
		i := sh.post[k]
		t := &sh.tops[i]
		if t.parent < 0 {
			continue
		}
		p.tops[i].rel = database.SemijoinKeys(p.tops[i].rel, t.cols, keys.get(p.tops[t.parent].rel, t.parentCols))
	}
	// Per-node DFS index, on the columns shared with the parent.
	for _, i := range sh.order {
		t := &sh.tops[i]
		if t.parent < 0 {
			continue
		}
		rel := p.tops[i].rel
		p.tops[i].index = rel.BuildIndexOn(t.cols, keys.find(rel, t.cols))
	}
	// Full-key membership tables for ContainsHead. A top relation is a set,
	// so its rows are the keys and only the slot table is built.
	p.fullIndex = make([]*database.KeySet, len(p.tops))
	for i := range p.tops {
		p.fullIndex[i] = p.tops[i].rel.BuildKeySet(sh.tops[i].allCols)
	}
}

// keySetCache remembers the key sets one full reduction has built, by
// relation identity and columns. A plan has a handful of tops, so a linear
// scan is the lookup.
type keySetCache []keySetEntry

type keySetEntry struct {
	rel  *database.Relation
	cols []int
	keys *database.KeySet
}

// find returns the key set built over (rel, cols), or nil.
func (c keySetCache) find(rel *database.Relation, cols []int) *database.KeySet {
	for _, e := range c {
		if e.rel == rel && slices.Equal(e.cols, cols) {
			return e.keys
		}
	}
	return nil
}

// get returns the key set over (rel, cols), building it on first use.
func (c *keySetCache) get(rel *database.Relation, cols []int) *database.KeySet {
	keys := c.find(rel, cols)
	if keys == nil {
		keys = rel.BuildKeySet(cols)
		*c = append(*c, keySetEntry{rel, cols, keys})
	}
	return keys
}

func colIn(vars []cq.Variable, v cq.Variable) int {
	for i, u := range vars {
		if u == v {
			return i
		}
	}
	return -1
}

// HeadTestable reports whether ContainsHead can decide membership: S is
// exactly the set of head variables (always so for S = free(Q)).
func (p *Plan) HeadTestable() bool { return p.headProbe != nil }

// ContainsHead reports whether the tuple, read positionally against the
// query head, is an answer: one full-key index probe per top, no
// allocation. Tuples assigning different values to repeated head variables
// are never answers. It panics when the plan is not HeadTestable — "cannot
// tell" must never read as "no" to a caller deduplicating by membership.
func (p *Plan) ContainsHead(t database.Tuple) bool {
	hp := p.headProbe
	if hp == nil {
		panic(fmt.Sprintf("yannakakis: ContainsHead on %s: S = %v is not the head's variable set", p.Q.Name, p.SVars))
	}
	if len(t) != len(p.Q.Head) {
		return false
	}
	for _, e := range hp.eq {
		if t[e[0]] != t[e[1]] {
			return false
		}
	}
	var buf [8]database.Value
	for i, cols := range hp.cols {
		key := buf[:0]
		for _, pos := range cols {
			key = append(key, t[pos])
		}
		if !p.fullIndex[i].Contains(key) {
			return false
		}
	}
	return true
}

// VarID returns the plan-internal id of a variable, or -1.
func (p *Plan) VarID(v cq.Variable) int { return p.shape.VarID(v) }

// NumVars returns the number of query variables.
func (p *Plan) NumVars() int { return len(p.shape.varName) }
