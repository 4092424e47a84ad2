// Package hypergraph implements the hypergraph machinery behind the paper's
// structural notions: α-acyclicity via GYO (Graham/Yu–Özsoyoğlu) reduction,
// join-tree construction, S-connexity, free-paths and (hyper)clique
// helpers. The ext-S-connex trees of Figure 1 are compiled by
// internal/yannakakis, which executes them.
//
// The hypergraph H(Q) of a CQ has the query's variables as vertices and one
// edge per atom (Section 2 of the paper). A query is acyclic iff H(Q) has a
// join tree; it is S-connex iff both H(Q) and H(Q) ∪ {S} are acyclic (the
// Brault-Baron equivalence the paper cites), and free-connex iff it is
// free(Q)-connex.
package hypergraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
)

// Edge is a hyperedge: a set of variables plus a caller-supplied identifier
// (for edges built from a query, the atom index).
type Edge struct {
	// ID identifies the edge for provenance; FromCQ uses the atom index.
	// Synthetic edges use negative IDs.
	ID int
	// Vars is the set of vertices spanned by the edge.
	Vars cq.VarSet
}

// Hypergraph is a multiset of hyperedges. The vertex set is implicit: the
// union of all edges.
type Hypergraph struct {
	Edges []Edge
}

// FromCQ builds H(Q): one edge per atom, vertices are the atom's variables.
// Virtual atoms contribute edges like any other atom (union extensions are
// judged on their full hypergraph).
func FromCQ(q *cq.CQ) *Hypergraph {
	h := &Hypergraph{Edges: make([]Edge, len(q.Atoms))}
	for i, a := range q.Atoms {
		h.Edges[i] = Edge{ID: i, Vars: a.VarSet()}
	}
	return h
}

// FromVarSets builds a hypergraph from explicit edge variable sets, with
// IDs 0..n-1.
func FromVarSets(sets ...cq.VarSet) *Hypergraph {
	h := &Hypergraph{Edges: make([]Edge, len(sets))}
	for i, s := range sets {
		h.Edges[i] = Edge{ID: i, Vars: s.Clone()}
	}
	return h
}

// Clone returns a deep copy.
func (h *Hypergraph) Clone() *Hypergraph {
	out := &Hypergraph{Edges: make([]Edge, len(h.Edges))}
	for i, e := range h.Edges {
		out.Edges[i] = Edge{ID: e.ID, Vars: e.Vars.Clone()}
	}
	return out
}

// Vertices returns the union of all edges.
func (h *Hypergraph) Vertices() cq.VarSet {
	s := make(cq.VarSet)
	for _, e := range h.Edges {
		s.AddAll(e.Vars)
	}
	return s
}

// WithEdge returns a copy of h with one extra edge (ID -1) holding vars.
// It is the H ∪ {S} construction used throughout the paper.
func (h *Hypergraph) WithEdge(vars cq.VarSet) *Hypergraph {
	out := h.Clone()
	out.Edges = append(out.Edges, Edge{ID: -1, Vars: vars.Clone()})
	return out
}

// Neighbors reports whether u and v share an edge. Every vertex of the
// hypergraph neighbors itself.
func (h *Hypergraph) Neighbors(u, v cq.Variable) bool {
	for _, e := range h.Edges {
		if e.Vars[u] && e.Vars[v] {
			return true
		}
	}
	return false
}

// NeighborSet returns all vertices sharing an edge with v, including v
// itself when v occurs in the hypergraph.
func (h *Hypergraph) NeighborSet(v cq.Variable) cq.VarSet {
	s := make(cq.VarSet)
	for _, e := range h.Edges {
		if e.Vars[v] {
			s.AddAll(e.Vars)
		}
	}
	return s
}

// EdgesWith returns the indices of edges containing v.
func (h *Hypergraph) EdgesWith(v cq.Variable) []int {
	var out []int
	for i, e := range h.Edges {
		if e.Vars[v] {
			out = append(out, i)
		}
	}
	return out
}

// HasEdgeCovering reports whether some edge contains every variable in s.
func (h *Hypergraph) HasEdgeCovering(s cq.VarSet) bool {
	for _, e := range h.Edges {
		if e.Vars.ContainsAll(s) {
			return true
		}
	}
	return false
}

// IsClique reports whether the given vertices are pairwise neighbors.
func (h *Hypergraph) IsClique(s cq.VarSet) bool {
	vs := s.Sorted()
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !h.Neighbors(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// String renders the edge sets in ID order.
func (h *Hypergraph) String() string {
	parts := make([]string, len(h.Edges))
	for i, e := range h.Edges {
		parts[i] = e.Vars.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// gyoState is the working state of a GYO reduction: per-edge current vertex
// sets, with removed edges marked.
type gyoState struct {
	cur   []cq.VarSet
	alive []bool
	n     int // alive count
}

func newGYOState(h *Hypergraph) *gyoState {
	st := &gyoState{
		cur:   make([]cq.VarSet, len(h.Edges)),
		alive: make([]bool, len(h.Edges)),
		n:     len(h.Edges),
	}
	for i, e := range h.Edges {
		st.cur[i] = e.Vars.Clone()
		st.alive[i] = true
	}
	return st
}

// occurrences counts alive edges containing v.
func (st *gyoState) occurrences(v cq.Variable) int {
	n := 0
	for i, s := range st.cur {
		if st.alive[i] && s[v] {
			n++
		}
	}
	return n
}

// GYOStep is one reduction step, recorded for join-tree reconstruction.
type GYOStep struct {
	// Kind is "vertex" (a vertex occurring in one edge was removed) or
	// "edge" (an edge contained in another was removed).
	Kind string
	// Edge is the index of the affected edge.
	Edge int
	// Vertex is set for vertex steps.
	Vertex cq.Variable
	// Into is the absorbing edge index for edge steps.
	Into int
}

// Reduce runs the GYO reduction to a fixpoint and reports whether the
// hypergraph is acyclic (reduces to at most one edge, possibly empty), along
// with the step log. The reduction is Church–Rosser, so any maximal run
// decides acyclicity.
func (h *Hypergraph) Reduce() (acyclic bool, steps []GYOStep) {
	st := newGYOState(h)
	for {
		progressed := false
		// Rule 1: remove a vertex that occurs in at most one alive edge.
		for i, s := range st.cur {
			if !st.alive[i] {
				continue
			}
			for v := range s {
				if st.occurrences(v) <= 1 {
					delete(s, v)
					steps = append(steps, GYOStep{Kind: "vertex", Edge: i, Vertex: v})
					progressed = true
				}
			}
		}
		// Rule 2: remove an edge whose vertex set is contained in another
		// alive edge (empty edges are contained in any edge).
		for i := range st.cur {
			if !st.alive[i] {
				continue
			}
			for j := range st.cur {
				if i == j || !st.alive[j] {
					continue
				}
				if st.cur[j].ContainsAll(st.cur[i]) {
					st.alive[i] = false
					st.n--
					steps = append(steps, GYOStep{Kind: "edge", Edge: i, Into: j})
					progressed = true
					break
				}
			}
		}
		if st.n <= 1 {
			return true, steps
		}
		if !progressed {
			return false, steps
		}
	}
}

// IsAcyclic reports α-acyclicity.
func (h *Hypergraph) IsAcyclic() bool {
	ok, _ := h.Reduce()
	return ok
}

// IsSConnex reports whether the hypergraph is S-connex: both H and H ∪ {S}
// are acyclic. For S = free(Q) this is free-connexity.
func (h *Hypergraph) IsSConnex(s cq.VarSet) bool {
	return h.IsAcyclic() && h.WithEdge(s).IsAcyclic()
}

// JoinTree is a rooted join tree over the edges of a hypergraph: Parent[i]
// is the parent edge index of edge i, or -1 for the root. The running
// intersection property holds: for every vertex v, the edges containing v
// form a connected subtree.
type JoinTree struct {
	H      *Hypergraph
	Root   int
	Parent []int
}

// BuildJoinTree constructs a join tree, or returns an error when the
// hypergraph is cyclic. Edges whose vertex set is empty attach to the root.
func BuildJoinTree(h *Hypergraph) (*JoinTree, error) {
	n := len(h.Edges)
	if n == 0 {
		return nil, fmt.Errorf("hypergraph: cannot build a join tree with no edges")
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -2 // unresolved
	}
	st := newGYOState(h)
	// Ear removal: an edge e is an ear with witness f when every vertex of
	// e that occurs in another alive edge also occurs in f. Removing ears
	// until one edge remains yields a join tree with parent[e] = f.
	for st.n > 1 {
		earFound := false
		for i := range st.cur {
			if !st.alive[i] {
				continue
			}
			// Shared vertices of i: those occurring in another alive edge.
			shared := make(cq.VarSet)
			for v := range st.cur[i] {
				if st.occurrences(v) > 1 {
					shared.Add(v)
				}
			}
			for j := range st.cur {
				if i == j || !st.alive[j] {
					continue
				}
				if st.cur[j].ContainsAll(shared) {
					parent[i] = j
					st.alive[i] = false
					st.n--
					earFound = true
					break
				}
			}
			if earFound {
				break
			}
		}
		if !earFound {
			return nil, fmt.Errorf("hypergraph: cyclic hypergraph has no join tree")
		}
	}
	root := -1
	for i := range st.alive {
		if st.alive[i] {
			root = i
			parent[i] = -1
		}
	}
	t := &JoinTree{H: h, Root: root, Parent: parent}
	if err := t.Verify(); err != nil {
		return nil, fmt.Errorf("hypergraph: internal error: constructed join tree invalid: %w", err)
	}
	return t, nil
}

// Children returns a child-list representation of the tree.
func (t *JoinTree) Children() [][]int {
	ch := make([][]int, len(t.Parent))
	for i, p := range t.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], i)
		}
	}
	return ch
}

// PostOrder returns the edge indices in post-order (children before
// parents); the root is last.
func (t *JoinTree) PostOrder() []int {
	ch := t.Children()
	out := make([]int, 0, len(t.Parent))
	var visit func(int)
	visit = func(i int) {
		for _, c := range ch[i] {
			visit(c)
		}
		out = append(out, i)
	}
	visit(t.Root)
	return out
}

// Verify checks the running intersection property and tree shape.
func (t *JoinTree) Verify() error {
	n := len(t.H.Edges)
	if len(t.Parent) != n {
		return fmt.Errorf("parent array has %d entries for %d edges", len(t.Parent), n)
	}
	roots := 0
	for i, p := range t.Parent {
		switch {
		case p == -1:
			roots++
		case p < 0 || p >= n:
			return fmt.Errorf("edge %d has invalid parent %d", i, p)
		}
	}
	if roots != 1 {
		return fmt.Errorf("join tree has %d roots", roots)
	}
	// Reachability (no cycles in parent pointers).
	if got := len(t.PostOrder()); got != n {
		return fmt.Errorf("join tree reaches %d of %d edges", got, n)
	}
	// Running intersection: for every vertex, the set of edges containing
	// it must induce a connected subgraph of the tree.
	for v := range t.H.Vertices() {
		if !t.connectedOn(v) {
			return fmt.Errorf("vertex %s violates the running intersection property", v)
		}
	}
	return nil
}

// connectedOn reports whether the edges containing v form a connected
// subtree.
func (t *JoinTree) connectedOn(v cq.Variable) bool {
	holders := t.H.EdgesWith(v)
	if len(holders) <= 1 {
		return true
	}
	in := make(map[int]bool, len(holders))
	for _, i := range holders {
		in[i] = true
	}
	// Walk up from each holder; for connectivity in a tree it suffices that
	// all holders share a single "highest" holder: climb from each holder
	// through holder-nodes only and check all reach the same top.
	top := -2
	for _, i := range holders {
		j := i
		for t.Parent[j] >= 0 && in[t.Parent[j]] {
			j = t.Parent[j]
		}
		if top == -2 {
			top = j
		} else if top != j {
			return false
		}
	}
	return true
}

// String renders the tree as indented edge sets.
func (t *JoinTree) String() string {
	var b strings.Builder
	ch := t.Children()
	var rec func(i, depth int)
	rec = func(i, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(t.H.Edges[i].Vars.String())
		b.WriteByte('\n')
		order := append([]int(nil), ch[i]...)
		sort.Ints(order)
		for _, c := range order {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	return b.String()
}
