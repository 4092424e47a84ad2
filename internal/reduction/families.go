package reduction

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/graph"
)

// Example31QueryK builds the order-k star union of Example 31 (k ≥ 4): the
// body holds atoms Ri(xi, z) for 1 ≤ i ≤ k-1, and there is one CQ per
// (k-1)-subset of {z, x1, ..., x(k-1)} as head. The paper proves the k = 4
// member intractable under 4-clique and leaves k ≥ 5 open: the natural
// reduction solves k-clique in O(n^(k-1)), which does not contradict the
// k-clique hypothesis for larger k.
func Example31QueryK(k int) *cq.UCQ {
	if k < 4 {
		panic("reduction: Example 31 needs k ≥ 4")
	}
	var atoms []cq.Atom
	allVars := []cq.Variable{"z"}
	for i := 1; i < k; i++ {
		x := cq.Variable(fmt.Sprintf("x%d", i))
		allVars = append(allVars, x)
		atoms = append(atoms, cq.Atom{
			Rel:  fmt.Sprintf("R%d", i),
			Vars: []cq.Variable{x, "z"},
		})
	}
	// One CQ per (k-1)-subset of the k variables: drop each variable once.
	var cqs []*cq.CQ
	for drop := range allVars {
		head := make([]cq.Variable, 0, k-1)
		for i, v := range allVars {
			if i != drop {
				head = append(head, v)
			}
		}
		cqs = append(cqs, &cq.CQ{
			Name:  fmt.Sprintf("Q%d", len(cqs)+1),
			Head:  head,
			Atoms: atoms,
		})
	}
	return cq.MustUCQ(cqs...)
}

// Example31InstanceK encodes a graph for the order-k star union: each edge
// {u,v}, in both directions, enters every Ri as (u tagged with xi, v tagged
// with z). Q1's answers are then (k-1)-tuples of vertices sharing a common
// neighbour; checking them pairwise for adjacency decides k-clique in
// O(n^(k-1)) — which, as the paper notes, stops contradicting the k-clique
// hypothesis once k ≥ 5.
func Example31InstanceK(g *graph.Graph, k int) *database.Instance {
	if k < 4 {
		panic("reduction: Example 31 needs k ≥ 4")
	}
	inst := database.NewInstance()
	rels := make([]*database.Relation, k-1)
	for i := range rels {
		rels[i] = database.NewRelation(fmt.Sprintf("R%d", i+1), 2)
	}
	zTag := uint8(100)
	for _, e := range g.Edges() {
		for _, dir := range [][2]int{{e[0], e[1]}, {e[1], e[0]}} {
			u, v := int64(dir[0]), int64(dir[1])
			for ri, r := range rels {
				r.Append(tagged(u, uint8(101+ri)), tagged(v, zTag))
			}
		}
	}
	for _, r := range rels {
		inst.AddRelation(r)
	}
	return inst
}

// Example31HasKClique scans the z-free CQ's answers (tag pattern
// x1..x(k-1)) for a pairwise-adjacent tuple: together with the common
// neighbour it forms a k-clique.
func Example31HasKClique(g *graph.Graph, answers *database.Relation, k int) bool {
	arity := k - 1
	if answers.Arity() != arity {
		return false
	}
outer:
	for i := 0; i < answers.Len(); i++ {
		t := answers.Row(i)
		verts := make([]int, arity)
		for p := 0; p < arity; p++ {
			c, tag := untag(t[p])
			if tag != uint8(101+p) {
				continue outer
			}
			verts[p] = int(c)
		}
		ok := true
		for a := 0; a < arity && ok; a++ {
			for b := a + 1; b < arity; b++ {
				if verts[a] == verts[b] || !g.HasEdge(verts[a], verts[b]) {
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Example39QueryK builds the order-k union of Example 39 (k ≥ 4):
//
//	Q1(x2,...,xk) ← { Ri on {x1..xk} \ {xi} | 1 ≤ i ≤ k-1 }
//	Q2(x2,...,xk) ← R1(x2,...,x(k-1),x1), R2(xk,x3,...,x(k-1),v)
//
// Q1 is cyclic; Q2 is free-connex and provides {x1,...,x(k-1)}, but the
// extension re-introduces a hyperclique. The paper proves k = 4
// intractable under 4-clique and leaves higher orders open.
func Example39QueryK(k int) *cq.UCQ {
	if k < 4 {
		panic("reduction: Example 39 needs k ≥ 4")
	}
	x := func(i int) cq.Variable { return cq.Variable(fmt.Sprintf("x%d", i)) }

	head := make([]cq.Variable, 0, k-1)
	for i := 2; i <= k; i++ {
		head = append(head, x(i))
	}

	// Q1: atom Ri over all variables except xi, in index order.
	var atoms1 []cq.Atom
	for i := 1; i < k; i++ {
		var vars []cq.Variable
		for j := 1; j <= k; j++ {
			if j != i {
				vars = append(vars, x(j))
			}
		}
		atoms1 = append(atoms1, cq.Atom{Rel: fmt.Sprintf("R%d", i), Vars: vars})
	}
	q1 := &cq.CQ{Name: "Q1", Head: head, Atoms: atoms1}

	// Q2: R1(x2,...,x(k-1),x1) and R2(xk,x3,...,x(k-1),v).
	var r1Vars []cq.Variable
	for j := 2; j < k; j++ {
		r1Vars = append(r1Vars, x(j))
	}
	r1Vars = append(r1Vars, x(1))
	r2Vars := []cq.Variable{x(k)}
	for j := 3; j < k; j++ {
		r2Vars = append(r2Vars, x(j))
	}
	r2Vars = append(r2Vars, "v")
	q2 := &cq.CQ{
		Name: "Q2",
		Head: append([]cq.Variable(nil), head...),
		Atoms: []cq.Atom{
			{Rel: "R1", Vars: r1Vars},
			{Rel: "R2", Vars: r2Vars},
		},
	}
	return cq.MustUCQ(q1, q2)
}
