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
// semijoin-reduces the absorber unless a Lemma 8 provider implies it: see
// Shape.MarkImplied), and runs a classical Yannakakis full reduction over
// the top join tree. It then groups each top's rows by the columns it
// shares with its tree parent and points every surviving parent row at the
// group of rows joining it, one group number per row and edge. A DFS walks
// those pointers to enumerate the join of the tops — which equals Q(I)|S —
// with constant delay, no duplicates and no hashing.
//
// Plan.Minus (cover.go) enumerates a plan's answers outside other plans
// whose tops its own tops cover: it marks the rows of the reduced tops
// once and walks filtered copies of the positions, the same way.
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
// otherwise, so a semijoin copies a row only when it removes something
// next to it. A projection copies (its key table is the projected relation).
// Within the full reduction, a child's key set on the columns it shares
// with its parent is built once, with each child row's entry, and serves
// both the bottom-up semijoin into the parent and the grouping of the
// child: a child row is looked up once per edge — on one shared column
// with dense values, by direct addressing rather than a hash (see
// database.KeySet). The top-down pass probes
// each surviving parent row once, for its pointer, and counting-sorts the
// child rows in the groups pointed at, unless every row is kept and
// grouped already. The membership tables behind ContainsHead and the row
// marks of Plan.Minus hold slots only, over the top relations' own rows,
// and each is built on its first read, not at Bind: a bind whose plan is
// only enumerated builds none.
// A plan is therefore a snapshot that may share storage with the instance
// it was bound to: it relies on stored rows never being rewritten (see
// database.Relation) and is unaffected by rows appended afterwards.
package yannakakis

import (
	"fmt"
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
	// pos holds the tops in the DFS pre-order iterators walk.
	pos []position
	// full[i] is the key set of top i on all columns — membership needs no
	// row lists — enabling the constant-time test Algorithm 1 relies on
	// ("tested in constant time after a linear time preprocessing phase").
	// Each is built on its first read (fullKeys).
	full []fullTable
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

// fullTable is a top's full-key membership table, built from its reduced
// relation on the first read; plans are shared across goroutines, hence
// the Once.
type fullTable struct {
	rel  *database.Relation
	once sync.Once
	keys *database.KeySet
}

// fullKeys returns the full-key table of top i.
func (p *Plan) fullKeys(i int) *database.KeySet {
	t := &p.full[i]
	t.once.Do(func() { t.keys = t.rel.BuildKeySet(p.shape.tops[i].allCols, nil) })
	return t.keys
}

// position is one top at its place in the DFS pre-order, reduced and
// grouped: everything an iterator reads to move through it.
type position struct {
	varIDs []int
	// rows is the number of rows and vals holds them, row-major,
	// len(varIDs) values each.
	rows int
	vals []database.Value
	// parent is the position of the tree parent (-1 for the root). A
	// non-root top's rows are grouped by the columns it shares with the
	// parent, group e being rows [offs[e], offs[e+1]), and down[r] is the
	// group of the rows joining the parent's row r.
	parent int
	offs   []int32
	down   []int32
}

// Bind runs the shape's relation passes over inst: it binds the atoms,
// replays the elimination steps and fully reduces the tops. Errors are
// returned when a relation is missing or has the wrong arity.
func (sh *Shape) Bind(inst *database.Instance) (*Plan, error) {
	p := &Plan{Q: sh.Q, SVars: sh.SVars, shape: sh, headIDs: sh.headIDs,
		headProbe: sh.headProbe, proj: make([]projection, sh.projections)}
	p.stats = Stats{Projections: sh.projections, Absorptions: sh.absorptions, Tops: len(sh.tops)}
	rels := make([]*database.Relation, len(sh.atoms))
	tops := make([]*database.Relation, len(sh.tops))
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
			if st.implied {
				continue
			}
			rels[st.into] = database.Semijoin(rels[st.into], st.cols, rels[st.node], sh.identity[:len(st.cols)])
		case 't':
			tops[st.top] = rels[st.node]
		}
	}
	p.reduce(tops)
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
// bottom-up then a top-down semijoin pass over tops, the top relations —
// and builds the DFS positions, each top grouped and pointed at from its
// parent. It records each reduced top for its full-key membership table,
// which is built on first use.
func (p *Plan) reduce(tops []*database.Relation) {
	sh := p.shape
	// keys[i] is child i's key set on the columns it shares with its
	// parent, and entries[i] the entry of each of its rows: the bottom-up
	// pass probes the parent's rows with the set, and the top-down pass
	// groups the child by the entries, hashing no child row again.
	keys := make([]*database.KeySet, len(sh.tops))
	entries := make([][]int32, len(sh.tops))
	for _, i := range sh.post {
		t := &sh.tops[i]
		if t.parent < 0 {
			continue
		}
		entries[i] = make([]int32, tops[i].Len())
		keys[i] = tops[i].BuildKeySet(t.cols, entries[i])
		tops[t.parent] = database.SemijoinKeys(tops[t.parent], t.parentCols, keys[i])
	}
	// The top-down pass runs in pre-order, so a parent is final before its
	// children. Every parent row is pointed at the group of child rows
	// joining it (after the bottom-up pass each has one), and the semijoin
	// keeps exactly the groups pointed at.
	p.pos = make([]position, len(sh.order))
	for k, i := range sh.order {
		t, rel := &sh.tops[i], tops[i]
		ps := &p.pos[k]
		ps.varIDs, ps.parent = t.varIDs, -1
		if t.parent >= 0 {
			ps.parent = sh.tops[t.parent].pos
			ps.down = keys[i].EntriesOf(tops[t.parent], t.parentCols)
			rel, ps.offs = grouped(rel, entries[i], keys[i].Len(), ps.down)
		}
		ps.rows, ps.vals, tops[i] = rel.Len(), rel.Values(0, rel.Len()), rel
	}
	// The reduced tops behind the full-key membership tables. A top relation
	// is a set, so its rows are the keys and only the slot table is built.
	p.full = make([]fullTable, len(tops))
	for i, rel := range tops {
		p.full[i].rel = rel
	}
}

// grouped returns the rows of rel whose entry (entries[r], one of n) down
// points at, counting-sorted by entry: entry by entry, and ascending
// within an entry. offs[e] is the first row of entry e's group, which is
// empty when no pointer reaches it, and offs[n] the row count. Rows
// already so grouped, none dropped, come back as rel.
func grouped(rel *database.Relation, entries []int32, n int, down []int32) (*database.Relation, []int32) {
	held := make([]bool, n)
	for _, e := range down {
		held[e] = true
	}
	offs := make([]int32, n+1)
	inPlace := true
	for r, e := range entries {
		if held[e] {
			offs[e+1]++
		}
		inPlace = inPlace && held[e] && (r == 0 || e >= entries[r-1])
	}
	for e := range n {
		offs[e+1] += offs[e]
	}
	if inPlace {
		return rel, offs
	}
	// Filling advances offs[e] to the next group's start; shifting restores it.
	a, kept := rel.Arity(), int(offs[n])
	vals := make([]database.Value, kept*a)
	for r, e := range entries {
		if held[e] {
			copy(vals[int(offs[e])*a:], rel.Row(r))
			offs[e]++
		}
	}
	copy(offs[1:], offs)
	offs[0] = 0
	out := database.RelationOf(rel.Name, a, kept, vals)
	out.MarkDistinct() // a subset of a set
	return out, offs
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
		if !p.fullKeys(i).Contains(key) {
			return false
		}
	}
	return true
}

// VarID returns the plan-internal id of a variable, or -1.
func (p *Plan) VarID(v cq.Variable) int { return p.shape.VarID(v) }

// NumVars returns the number of query variables.
func (p *Plan) NumVars() int { return len(p.shape.varName) }
