// Package yannakakis implements the evaluation engine behind the paper's
// upper bounds: linear-time preprocessing and constant-delay enumeration for
// S-connex acyclic conjunctive queries (the CDY algorithm of Theorem 3(1)
// and Lemma 8, realised through a GYO-driven elimination plan).
//
// # How the plan works
//
// Prepare(q, I, S) first checks S-connexity structurally (H(q) and
// H(q) ∪ {S} acyclic). It then runs the GYO reduction of H(q) ∪ {S} with the
// S edge frozen, *on the data*:
//
//   - a variable outside S occurring in exactly one alive atom is projected
//     out of that atom's relation (the pre-projection relation is logged
//     for replay);
//   - an atom whose variables are contained in another alive atom's
//     variables is absorbed: the absorber is semijoin-reduced by it;
//   - an atom whose variables are contained in S becomes a top node.
//
// The top nodes span exactly S and form an acyclic hypergraph; after a
// classical Yannakakis full reduction over their join tree, a DFS with
// per-node hash indexes enumerates the join of the tops — which equals
// Q(I)|S — with constant delay and no duplicates.
//
// An enumerated S-tuple extends to a full homomorphism by replaying the
// elimination log backwards: each logged projection looks up one matching
// pre-projection row (constant time), exactly the extension step in the
// proof of Lemma 8. The index that lookup needs is built on the first
// Extend, not at Prepare: enumerating head tuples never reads it.
//
// # What Prepare copies and what it shares
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
// storage with the instance it was prepared over: it relies on stored rows
// never being rewritten (see database.Relation) and is unaffected by rows
// appended afterwards.
package yannakakis

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/hypergraph"
)

// Plan is a prepared enumeration plan for one S-connex CQ over one instance.
// Preparation costs O(‖I‖) for a fixed query; iteration yields one answer
// per O(1) steps.
type Plan struct {
	Q *cq.CQ
	// SVars is the enumeration variable set in sorted order; iterators
	// produce assignments over these variables (plus, after Extend, all
	// query variables).
	SVars []cq.Variable

	varID   map[cq.Variable]int
	varName []cq.Variable
	// headIDs caches the variable ids of the query head in head order, for
	// allocation-free head projection on the enumeration hot path.
	headIDs []int

	log  []logEntry
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

type logEntry struct {
	kind byte // 'p' projection, 'a' absorption, 't' top
	node int
	// Projection fields: the variable removed, its column in pre, the
	// pre-projection relation, the remaining columns, the variable ids they
	// hold in column order, and the index of pre on them.
	removedVar cq.Variable
	removedCol int
	pre        *database.Relation
	keepCols   []int
	keyVarIDs  []int
	ext        *extIndex
}

// extIndex is a projection's extension index, built by the first Extend
// that replays it; plans are shared across goroutines, hence the Once.
type extIndex struct {
	once  sync.Once
	index *database.Index
}

// extension returns the index of e.pre on the columns the projection kept.
func (e *logEntry) extension() *database.Index {
	e.ext.once.Do(func() { e.ext.index = e.pre.BuildIndex(e.keepCols) })
	return e.ext.index
}

type topNode struct {
	vars   []cq.Variable
	varIDs []int
	rel    *database.Relation
	// parent in the top join tree (-1 for root), and the index/key vars
	// binding this node to its ancestors during DFS.
	parent    int
	index     *database.Index
	keyVarIDs []int
}

// Prepare builds an enumeration plan for q over inst with enumeration set s.
// A nil s means free(q): the standard free-connex enumeration. Errors are
// returned when a relation is missing or has the wrong arity, when s
// contains variables outside the query, or when q is not s-connex.
func Prepare(q *cq.CQ, inst *database.Instance, s cq.VarSet) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		s = q.Free()
	}
	vars := q.Vars()
	if !vars.ContainsAll(s) {
		return nil, fmt.Errorf("yannakakis: enumeration set %v contains variables outside the query", s.Minus(vars))
	}
	h := hypergraph.FromCQ(q)
	if !h.IsAcyclic() {
		return nil, fmt.Errorf("yannakakis: query %s is cyclic", q.Name)
	}
	if !h.WithEdge(s).IsAcyclic() {
		return nil, fmt.Errorf("yannakakis: query %s is not %v-connex", q.Name, s)
	}

	p := &Plan{Q: q, varID: make(map[cq.Variable]int)}
	for _, v := range vars.Sorted() {
		p.varID[v] = len(p.varName)
		p.varName = append(p.varName, v)
	}
	p.SVars = s.Sorted()
	p.headIDs = make([]int, len(q.Head))
	for i, v := range q.Head {
		p.headIDs[i] = p.varID[v]
	}

	// Bind atoms to working relations.
	nodes := make([]*elimNode, len(q.Atoms))
	for i, a := range q.Atoms {
		n, err := bindAtom(a, inst)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
		p.stats.InputValues += n.rel.Len() * n.rel.Arity()
	}

	if err := p.eliminate(nodes, s); err != nil {
		return nil, err
	}
	if err := p.buildTopTree(); err != nil {
		return nil, err
	}
	return p, nil
}

// elimNode is a working atom during elimination: current variables (the
// relation's columns, in order) and current relation.
type elimNode struct {
	vars  []cq.Variable
	rel   *database.Relation
	alive bool
}

func (n *elimNode) colOf(v cq.Variable) int {
	for i, u := range n.vars {
		if u == v {
			return i
		}
	}
	return -1
}

func (n *elimNode) varSet() cq.VarSet {
	return cq.NewVarSet(n.vars...)
}

// bindAtom attaches the atom to its relation as a duplicate-free working
// relation over the atom's distinct variables. Without repeated variables
// and over a relation that is a set, that is a view of the stored rows;
// otherwise rows that disagree on repeated positions are filtered out and
// the rest deduplicated into a copy.
func bindAtom(a cq.Atom, inst *database.Instance) (*elimNode, error) {
	rel := inst.Relation(a.Rel)
	if rel == nil {
		return nil, fmt.Errorf("yannakakis: no relation %q in the instance", a.Rel)
	}
	if rel.Arity() != len(a.Vars) {
		return nil, fmt.Errorf("yannakakis: atom %s has arity %d but relation has arity %d",
			a, len(a.Vars), rel.Arity())
	}
	// Distinct variables in first-occurrence order, with their first column.
	var vars []cq.Variable
	var cols []int
	firstCol := make(map[cq.Variable]int)
	selfEqual := false
	for i, v := range a.Vars {
		if _, ok := firstCol[v]; ok {
			selfEqual = true
			continue
		}
		firstCol[v] = i
		vars = append(vars, v)
		cols = append(cols, i)
	}
	if !selfEqual && rel.IsSet() {
		return &elimNode{vars: vars, rel: rel.View(), alive: true}, nil
	}
	work := rel
	if selfEqual {
		work = rel.Filter(func(t database.Tuple) bool {
			for i, v := range a.Vars {
				if t[firstCol[v]] != t[i] {
					return false
				}
			}
			return true
		})
	}
	proj := work.Project(a.Rel, cols)
	return &elimNode{vars: vars, rel: proj, alive: true}, nil
}

// eliminate runs the frozen-S GYO reduction on the data, filling the log
// and the top list.
func (p *Plan) eliminate(nodes []*elimNode, s cq.VarSet) error {
	aliveCount := len(nodes)
	occurrences := func(v cq.Variable) int {
		n := 0
		for _, nd := range nodes {
			if nd.alive && nd.colOf(v) >= 0 {
				n++
			}
		}
		return n
	}

	for aliveCount > 0 {
		// Rule 1 to fixpoint: project solo existential variables. Removing
		// a solo variable never changes another variable's occurrence
		// count, so one pass per node suffices.
		for i, nd := range nodes {
			if !nd.alive {
				continue
			}
			for {
				removed := false
				for _, v := range nd.vars {
					if !s[v] && occurrences(v) <= 1 {
						p.projectOut(i, nd, v)
						removed = true
						break
					}
				}
				if !removed {
					break
				}
			}
		}

		// Rule 2: absorb one atom into another, then re-run rule 1 (the
		// absorber may now hold freshly solo variables).
		absorbed := false
		for i, nd := range nodes {
			if !nd.alive {
				continue
			}
			for j, other := range nodes {
				if i == j || !other.alive {
					continue
				}
				if other.varSet().ContainsAll(nd.varSet()) {
					p.absorb(i, nd, other)
					aliveCount--
					absorbed = true
					break
				}
			}
			if absorbed {
				break
			}
		}
		if absorbed {
			continue
		}

		// Rule 3: atoms contained in S become tops.
		madeTop := false
		for i, nd := range nodes {
			if !nd.alive {
				continue
			}
			if s.ContainsAll(nd.varSet()) {
				p.makeTop(i, nd)
				aliveCount--
				madeTop = true
			}
		}
		if !madeTop {
			return fmt.Errorf("yannakakis: internal error: elimination stalled for %s (S=%v)", p.Q.Name, s)
		}
	}
	if len(p.tops) == 0 {
		return fmt.Errorf("yannakakis: internal error: no top nodes for %s", p.Q.Name)
	}
	return nil
}

func (p *Plan) projectOut(i int, nd *elimNode, v cq.Variable) {
	col := nd.colOf(v)
	pre := nd.rel
	var keepCols []int
	var keepVars []cq.Variable
	var keyVarIDs []int
	for c, u := range nd.vars {
		if c == col {
			continue
		}
		keepCols = append(keepCols, c)
		keepVars = append(keepVars, u)
		keyVarIDs = append(keyVarIDs, p.varID[u])
	}
	entry := logEntry{
		kind:       'p',
		node:       i,
		removedVar: v,
		removedCol: col,
		pre:        pre,
		keepCols:   keepCols,
		keyVarIDs:  keyVarIDs,
		ext:        new(extIndex),
	}
	p.log = append(p.log, entry)
	nd.rel = pre.Project(pre.Name, keepCols)
	nd.vars = keepVars
	p.stats.Projections++
}

func (p *Plan) absorb(i int, nd, into *elimNode) {
	// Semijoin the absorber by the absorbed atom on the absorbed columns.
	intoCols := make([]int, len(nd.vars))
	ndCols := make([]int, len(nd.vars))
	for c, v := range nd.vars {
		intoCols[c] = into.colOf(v)
		ndCols[c] = c
	}
	into.rel = database.Semijoin(into.rel, intoCols, nd.rel, ndCols)
	nd.alive = false
	p.log = append(p.log, logEntry{kind: 'a', node: i})
	p.stats.Absorptions++
}

func (p *Plan) makeTop(i int, nd *elimNode) {
	nd.alive = false
	p.log = append(p.log, logEntry{kind: 't', node: i})
	varIDs := make([]int, len(nd.vars))
	for c, v := range nd.vars {
		varIDs[c] = p.varID[v]
	}
	p.tops = append(p.tops, topNode{vars: nd.vars, varIDs: varIDs, rel: nd.rel, parent: -1})
	p.stats.Tops++
}

// buildTopTree joins the top nodes: join tree, full reduction, DFS order
// and per-node indexes.
func (p *Plan) buildTopTree() error {
	sets := make([]cq.VarSet, len(p.tops))
	for i, t := range p.tops {
		sets[i] = cq.NewVarSet(t.vars...)
	}
	jt, err := hypergraph.BuildJoinTree(hypergraph.FromVarSets(sets...))
	if err != nil {
		return fmt.Errorf("yannakakis: internal error: top hypergraph cyclic: %w", err)
	}
	for i := range p.tops {
		p.tops[i].parent = jt.Parent[i]
	}

	// Classical full reducer: bottom-up then top-down semijoin passes.
	sharedCols := func(child, parent int) (childCols, parentCols []int) {
		for c, v := range p.tops[child].vars {
			if pc := colIn(p.tops[parent].vars, v); pc >= 0 {
				childCols = append(childCols, c)
				parentCols = append(parentCols, pc)
			}
		}
		return childCols, parentCols
	}
	// A semijoin hands back the same relation when nothing dangles, so the
	// key sets are remembered per (relation, columns): a child that the
	// top-down pass leaves whole is indexed below on the key set the
	// bottom-up pass built over it.
	var keys keySetCache
	post := jt.PostOrder()
	for _, i := range post {
		if p.tops[i].parent < 0 {
			continue
		}
		par := p.tops[i].parent
		cc, pc := sharedCols(i, par)
		p.tops[par].rel = database.SemijoinKeys(p.tops[par].rel, pc, keys.get(p.tops[i].rel, cc))
	}
	for k := len(post) - 1; k >= 0; k-- {
		i := post[k]
		if p.tops[i].parent < 0 {
			continue
		}
		par := p.tops[i].parent
		cc, pc := sharedCols(i, par)
		p.tops[i].rel = database.SemijoinKeys(p.tops[i].rel, cc, keys.get(p.tops[par].rel, pc))
	}

	// DFS pre-order: reverse of post-order is a valid pre-order for our
	// purposes only if children precede parents in post; instead compute a
	// proper pre-order.
	children := jt.Children()
	p.order = p.order[:0]
	var visit func(int)
	visit = func(i int) {
		p.order = append(p.order, i)
		for _, c := range children[i] {
			visit(c)
		}
	}
	visit(jt.Root)

	// Per-node DFS index: on the columns shared with the parent. By the
	// running intersection property these are exactly the variables shared
	// with all previously assigned nodes.
	for _, i := range p.order {
		t := &p.tops[i]
		if t.parent < 0 {
			continue
		}
		cc, _ := sharedCols(i, t.parent)
		t.index = t.rel.BuildIndexOn(cc, keys.find(t.rel, cc))
		t.keyVarIDs = t.keyVarIDs[:0]
		for _, c := range cc {
			t.keyVarIDs = append(t.keyVarIDs, t.varIDs[c])
		}
	}

	// Full-key membership tables for ContainsHead. A top relation is a set,
	// so its rows are the keys and only the slot table is built.
	p.fullIndex = make([]*database.KeySet, len(p.tops))
	for i := range p.tops {
		cols := make([]int, p.tops[i].rel.Arity())
		for c := range cols {
			cols[c] = c
		}
		p.fullIndex[i] = p.tops[i].rel.BuildKeySet(cols)
	}
	p.buildHeadProbe()
	return nil
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

// headProbe is ContainsHead compiled at Prepare time: which head position
// feeds each column of each top, and which head positions must agree
// because they repeat a variable.
type headProbe struct {
	// cols[i][c] is the head position whose value is column c of top i.
	cols [][]int
	// eq lists (later, first) position pairs of repeated head variables.
	eq [][2]int
}

// buildHeadProbe compiles the head membership test, or leaves it nil when S
// is not exactly the head's variable set: with an S variable outside the
// head a head tuple does not determine the S-assignment, and with a head
// variable outside S the tops do not constrain it, so membership cannot be
// decided from the tuple either way.
func (p *Plan) buildHeadProbe() {
	first := make(map[cq.Variable]int, len(p.Q.Head))
	hp := &headProbe{cols: make([][]int, len(p.tops))}
	for i, v := range p.Q.Head {
		if f, ok := first[v]; ok {
			hp.eq = append(hp.eq, [2]int{i, f})
			continue
		}
		first[v] = i
	}
	if len(first) != len(p.SVars) {
		return
	}
	for i, t := range p.tops {
		hp.cols[i] = make([]int, len(t.vars))
		for c, v := range t.vars {
			pos, ok := first[v]
			if !ok {
				return
			}
			hp.cols[i][c] = pos
		}
	}
	p.headProbe = hp
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
func (p *Plan) VarID(v cq.Variable) int {
	id, ok := p.varID[v]
	if !ok {
		return -1
	}
	return id
}

// NumVars returns the number of query variables.
func (p *Plan) NumVars() int { return len(p.varName) }
