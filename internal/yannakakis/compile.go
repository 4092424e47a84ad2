package yannakakis

import (
	"fmt"
	"slices"

	"repro/internal/cq"
	"repro/internal/hypergraph"
)

// Shape is the query-only half of a plan: everything Theorem 12's
// preprocessing decides before reading a row, compiled once per (query, S)
// and bound to any number of instances, concurrently. It is read-only after
// Compile (and MarkImplied, if its compiler calls it) returns.
//
// It holds the dense variable ids, how each atom binds to its relation,
// the frozen-S GYO elimination as a step list with its column maps, and the
// join tree of the tops with each edge's shared columns, the DFS order and
// the head-probe layout. Together with the atoms hanging below the tops it
// is the ext-S-connex tree of Figure 1 (see ConnexTree), made executable.
type Shape struct {
	Q *cq.CQ
	// SVars is the enumeration variable set in sorted order.
	SVars []cq.Variable

	// varName[id] is the variable with that id: the query's variables in
	// sorted order.
	varName []cq.Variable
	// sIDs and headIDs are the variable ids of SVars and of the query
	// head, in order.
	sIDs    []int
	headIDs []int

	// identity[:n] is the column list 0..n-1, shared by every step and
	// top that keys on all of a relation's columns.
	identity []int
	atoms    []atomShape
	steps    []step
	// projections and absorptions count the steps of each kind.
	projections, absorptions int
	tops                     []topShape
	// order is the DFS pre-order over tops used by iterators; post is a
	// post-order (children first) for the full reducer.
	order, post []int
	// headProbe drives ContainsHead; nil unless S = var(head).
	headProbe *headProbe
}

// atomShape says how one atom binds to its relation: the columns holding
// its distinct variables (in first-occurrence order) and the column pairs
// a row must agree on because the atom repeats a variable.
type atomShape struct {
	atom cq.Atom
	cols []int
	eq   [][2]int
}

// step is one move of the frozen-S GYO elimination, over atom nodes.
type step struct {
	kind    byte // 'p' projection, 'a' absorption, 't' top
	implied bool // an absorption that removes no row (see MarkImplied)
	node    int
	// A projection removes the variable removedID from column removedCol
	// and keeps the columns cols, which hold the variables ids.
	//
	// An absorption semijoin-reduces the node into on its columns cols,
	// which hold the absorbed node's columns in order.
	cols                  []int
	removedID, removedCol int
	ids                   []int
	into                  int
	// A top step makes the node the top numbered top.
	top int
}

// topShape is one top node of the join tree over the tops.
type topShape struct {
	// node is the atom that became this top.
	node   int
	vars   []cq.Variable
	varIDs []int
	// parent in the top join tree (-1 for the root); cols are this top's
	// columns shared with the parent, which group its rows, and
	// parentCols the parent's columns holding the same variables.
	parent     int
	cols       []int
	parentCols []int
	// pos is the top's position in the DFS order.
	pos int
	// allCols lists all columns, keying the full-key table.
	allCols []int
}

// Compile builds the shape of q with enumeration set s. A nil s means
// free(q): the standard free-connex enumeration. Errors are returned when
// the query is invalid, when s contains variables outside the query, or
// when q is not s-connex.
func Compile(q *cq.CQ, s cq.VarSet) (*Shape, error) {
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

	sh := &Shape{Q: q, varName: vars.Sorted(), SVars: s.Sorted(),
		atoms: make([]atomShape, len(q.Atoms))}
	sh.sIDs = sh.ids(sh.SVars)
	sh.headIDs = sh.ids(q.Head)

	nodes := make([]elimNode, len(q.Atoms))
	arity := 0
	for i, a := range q.Atoms {
		sh.atoms[i] = compileAtom(a, &nodes[i])
		arity = max(arity, len(a.Vars))
	}
	sh.identity = make([]int, arity)
	for c := range sh.identity {
		sh.identity[c] = c
	}
	if err := sh.eliminate(nodes, s); err != nil {
		return nil, err
	}
	// A shape lives as long as its prepared query: keep no growth slack.
	sh.steps, sh.tops = slices.Clone(sh.steps), slices.Clone(sh.tops)
	if err := sh.buildTopTree(); err != nil {
		return nil, err
	}
	sh.buildHeadProbe()
	return sh, nil
}

// ids maps variables to their ids.
func (sh *Shape) ids(vars []cq.Variable) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = sh.VarID(v)
	}
	return out
}

// elimNode is a working atom during elimination: its current variables
// (the bound relation's columns, in order).
type elimNode struct {
	vars  []cq.Variable
	alive bool
}

func (n *elimNode) varSet() cq.VarSet { return cq.NewVarSet(n.vars...) }

// compileAtom records how a binds to its relation and starts its node over
// the atom's distinct variables.
func compileAtom(a cq.Atom, nd *elimNode) atomShape {
	as := atomShape{atom: a}
	for i, v := range a.Vars {
		if first := colIn(nd.vars, v); first >= 0 {
			as.eq = append(as.eq, [2]int{i, as.cols[first]})
			continue
		}
		nd.vars = append(nd.vars, v)
		as.cols = append(as.cols, i)
	}
	nd.alive = true
	return as
}

// eliminate runs the frozen-S GYO reduction on the variables, recording
// every move as a step. Which variable is solo, which atom absorbs which
// and which atom becomes a top depend on the query alone.
func (sh *Shape) eliminate(nodes []elimNode, s cq.VarSet) error {
	aliveCount := len(nodes)
	occurrences := func(v cq.Variable) int {
		n := 0
		for i := range nodes {
			if nodes[i].alive && colIn(nodes[i].vars, v) >= 0 {
				n++
			}
		}
		return n
	}

	for aliveCount > 0 {
		// Rule 1 to fixpoint: project solo existential variables. Removing
		// a solo variable never changes another variable's occurrence
		// count, so one pass per node suffices.
		for i := range nodes {
			nd := &nodes[i]
			if !nd.alive {
				continue
			}
			for {
				removed := false
				for _, v := range nd.vars {
					if !s[v] && occurrences(v) <= 1 {
						sh.projectOut(i, nd, v)
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
		for i := range nodes {
			if !nodes[i].alive {
				continue
			}
			for j := range nodes {
				if i == j || !nodes[j].alive {
					continue
				}
				if nodes[j].varSet().ContainsAll(nodes[i].varSet()) {
					sh.absorb(i, j, nodes)
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
		for i := range nodes {
			nd := &nodes[i]
			if nd.alive && s.ContainsAll(nd.varSet()) {
				sh.makeTop(i, nd)
				aliveCount--
				madeTop = true
			}
		}
		if !madeTop {
			return fmt.Errorf("yannakakis: internal error: elimination stalled for %s (S=%v)", sh.Q.Name, s)
		}
	}
	if len(sh.tops) == 0 {
		return fmt.Errorf("yannakakis: internal error: no top nodes for %s", sh.Q.Name)
	}
	return nil
}

func (sh *Shape) projectOut(i int, nd *elimNode, v cq.Variable) {
	st := step{kind: 'p', node: i, removedID: sh.VarID(v), removedCol: colIn(nd.vars, v)}
	var keepVars []cq.Variable
	for c, u := range nd.vars {
		if c == st.removedCol {
			continue
		}
		st.cols = append(st.cols, c)
		st.ids = append(st.ids, sh.VarID(u))
		keepVars = append(keepVars, u)
	}
	sh.steps = append(sh.steps, st)
	sh.projections++
	nd.vars = keepVars
}

func (sh *Shape) absorb(i, into int, nodes []elimNode) {
	nd := &nodes[i]
	st := step{kind: 'a', node: i, into: into, cols: make([]int, len(nd.vars))}
	for c, v := range nd.vars {
		st.cols[c] = colIn(nodes[into].vars, v)
	}
	nd.alive = false
	sh.steps = append(sh.steps, st)
	sh.absorptions++
}

func (sh *Shape) makeTop(i int, nd *elimNode) {
	nd.alive = false
	sh.steps = append(sh.steps, step{kind: 't', node: i, top: len(sh.tops)})
	sh.tops = append(sh.tops, topShape{node: i, vars: nd.vars, varIDs: sh.ids(nd.vars), parent: -1})
}

// MarkImplied marks as implied each absorption of an atom that has
// absorbed nothing earlier into an atom for which implied(atom, into)
// holds, and Bind skips those semijoins. The caller vouches that on every
// instance the shape is bound to, each row of into's relation agrees with
// a row of the atom's relation (core.Compile: a Lemma 8 virtual relation
// and an atom its provider implies). Call it before the first Bind.
func (sh *Shape) MarkImplied(implied func(atom, into int) bool) {
	absorbed := make([]bool, len(sh.atoms))
	for i := range sh.steps {
		if st := &sh.steps[i]; st.kind == 'a' {
			st.implied = !absorbed[st.node] && implied(st.node, st.into)
			absorbed[st.into] = true
		}
	}
}

// buildTopTree joins the tops: join tree, each edge's shared columns, the
// post-order of the full reducer and the DFS order.
func (sh *Shape) buildTopTree() error {
	sets := make([]cq.VarSet, len(sh.tops))
	for i, t := range sh.tops {
		sets[i] = cq.NewVarSet(t.vars...)
	}
	jt, err := hypergraph.BuildJoinTree(hypergraph.FromVarSets(sets...))
	if err != nil {
		return fmt.Errorf("yannakakis: internal error: top hypergraph cyclic: %w", err)
	}
	for i := range sh.tops {
		t := &sh.tops[i]
		t.parent = jt.Parent[i]
		t.allCols = sh.identity[:len(t.vars)]
		if t.parent < 0 {
			continue
		}
		// By the running intersection property the columns shared with the
		// parent are exactly the variables shared with all previously
		// assigned nodes, so they key the rows a DFS visits.
		for c, v := range t.vars {
			if pc := colIn(sh.tops[t.parent].vars, v); pc >= 0 {
				t.cols = append(t.cols, c)
				t.parentCols = append(t.parentCols, pc)
			}
		}
	}
	sh.post = jt.PostOrder()
	children := jt.Children()
	var visit func(int)
	visit = func(i int) {
		sh.tops[i].pos = len(sh.order)
		sh.order = append(sh.order, i)
		for _, c := range children[i] {
			visit(c)
		}
	}
	visit(jt.Root)
	return nil
}

// headProbe is ContainsHead compiled: which head position feeds each column
// of each top, and which head positions must agree because they repeat a
// variable.
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
func (sh *Shape) buildHeadProbe() {
	first := make(map[cq.Variable]int, len(sh.Q.Head))
	hp := &headProbe{cols: make([][]int, len(sh.tops))}
	for i, v := range sh.Q.Head {
		if f, ok := first[v]; ok {
			hp.eq = append(hp.eq, [2]int{i, f})
			continue
		}
		first[v] = i
	}
	if len(first) != len(sh.SVars) {
		return
	}
	for i, t := range sh.tops {
		hp.cols[i] = make([]int, len(t.vars))
		for c, v := range t.vars {
			pos, ok := first[v]
			if !ok {
				return
			}
			hp.cols[i][c] = pos
		}
	}
	sh.headProbe = hp
}

// HeadTestable reports whether ContainsHead can decide membership on the
// shape's plans: S is exactly the set of head variables (always so for
// S = free(Q)).
func (sh *Shape) HeadTestable() bool { return sh.headProbe != nil }

// VarID returns the shape's dense id of a variable, or -1.
func (sh *Shape) VarID(v cq.Variable) int {
	id, ok := slices.BinarySearch(sh.varName, v)
	if !ok {
		return -1
	}
	return id
}

// NumTops returns the number of top nodes.
func (sh *Shape) NumTops() int { return len(sh.tops) }

// ConnexTree returns the ext-S-connex tree the shape executes (Section 2,
// Figure 1 of the paper) as a join tree over an inclusive extension of
// H(q). Its first NumTops edges are the tops, joined as the top join tree;
// then comes one edge per atom, with the atom's variables, hanging below
// the atom that absorbed it or below the top it became. The tree is
// verified before it is returned.
func (sh *Shape) ConnexTree() (*hypergraph.JoinTree, error) {
	k := len(sh.tops)
	sets := make([]cq.VarSet, 0, k+len(sh.Q.Atoms))
	parent := make([]int, k+len(sh.Q.Atoms))
	root := -1
	for i, t := range sh.tops {
		sets = append(sets, cq.NewVarSet(t.vars...))
		if t.parent < 0 {
			root = i
			parent[i] = -1
		} else {
			parent[i] = t.parent
		}
	}
	for _, a := range sh.Q.Atoms {
		sets = append(sets, a.VarSet())
	}
	for _, st := range sh.steps {
		switch st.kind {
		case 'a':
			parent[k+st.node] = k + st.into
		case 't':
			parent[k+st.node] = st.top
		}
	}
	jt := &hypergraph.JoinTree{H: hypergraph.FromVarSets(sets...), Root: root, Parent: parent}
	if err := jt.Verify(); err != nil {
		return nil, fmt.Errorf("yannakakis: internal error: connex tree of %s invalid: %w", sh.Q.Name, err)
	}
	return jt, nil
}
