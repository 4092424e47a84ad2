package reduction

import (
	"slices"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/graph"
)

// --- Example 18: triangle detection through a union of intractable CQs ---

// Example18Query returns the union of Example 18: two cyclic
// body-isomorphic CQs and an acyclic non-free-connex one.
func Example18Query() *cq.UCQ {
	return cq.MustParse(`
		Q1(x,y) <- R1(x,y), R2(y,u), R3(x,u).
		Q2(x,y) <- R1(y,v), R2(v,x), R3(y,x).
		Q3(x,y) <- R1(x,z), R2(y,z).
	`)
}

// Tags used by the Example 18 encoding, following the paper's (·,x), (·,y),
// (·,z) annotation with z playing the role of variable u.
const (
	tagX uint8 = 1
	tagY uint8 = 2
	tagU uint8 = 3
)

// Example18Instance encodes a graph per Example 18: for every edge (u,v)
// with u < v, R1 gains ((u,x),(v,y)), R2 gains ((u,y),(v,u-tag)) and R3
// gains ((u,x),(v,u-tag)). Q1's answers then correspond exactly to
// triangles a < b < c, Q2's to rotations of them, and Q3 returns nothing
// (its join requires a y-tag to meet a u-tag).
func Example18Instance(g *graph.Graph) *database.Instance {
	inst := database.NewInstance()
	r1 := database.NewRelation("R1", 2)
	r2 := database.NewRelation("R2", 2)
	r3 := database.NewRelation("R3", 2)
	for _, e := range g.Edges() {
		u, v := int64(e[0]), int64(e[1])
		r1.Append(tagged(u, tagX), tagged(v, tagY))
		r2.Append(tagged(u, tagY), tagged(v, tagU))
		r3.Append(tagged(u, tagX), tagged(v, tagU))
	}
	inst.AddRelation(r1)
	inst.AddRelation(r2)
	inst.AddRelation(r3)
	return inst
}

// Example18DecodeTriangles extracts from the union's answers the pairs
// (a, b) that extend to a triangle a < b < c (the Q1 answers, identified by
// their (x,y) tag pattern).
func Example18DecodeTriangles(answers *database.Relation) [][2]int {
	var out [][2]int
	for i := 0; i < answers.Len(); i++ {
		t := answers.Row(i)
		a, ta := untag(t[0])
		b, tb := untag(t[1])
		if ta == tagX && tb == tagY {
			out = append(out, [2]int{int(a), int(b)})
		}
	}
	return out
}

// --- Example 22 / Lemma 26: 4-clique through a non-bypass-guarded union ---

// Example22Query returns the union of Example 22 (one body, two heads).
func Example22Query() *cq.UCQ {
	return cq.MustParse(`
		Q1(x,y,t) <- R1(x,w,t), R2(y,w,t).
		Q2(x,y,w) <- R1(x,w,t), R2(y,w,t).
	`)
}

// Example22Instance encodes all ordered triangle triples of g into R1 and
// R2 (R1 = R2 = T, with |T| = 6·#triangles ∈ O(n³)). It also returns the
// triangle count.
func Example22Instance(g *graph.Graph) (*database.Instance, int) {
	tris := g.Triangles()
	r1 := database.NewRelation("R1", 3)
	for _, t := range tris {
		perms := [][3]int{
			{t[0], t[1], t[2]}, {t[0], t[2], t[1]},
			{t[1], t[0], t[2]}, {t[1], t[2], t[0]},
			{t[2], t[0], t[1]}, {t[2], t[1], t[0]},
		}
		for _, p := range perms {
			r1.AppendInts(int64(p[0]), int64(p[1]), int64(p[2]))
		}
	}
	r2 := r1.Clone()
	r2.Name = "R2"
	inst := database.NewInstance()
	inst.AddRelation(r1)
	inst.AddRelation(r2)
	return inst, len(tris)
}

// Example22HasFourClique scans the union's answers for a witness: an
// answer (p, q, ·) with p ≠ q and {p, q} ∈ E certifies a 4-clique (the two
// triangles share the remaining two vertices; see Figure 3).
func Example22HasFourClique(g *graph.Graph, answers *database.Relation) bool {
	for i := 0; i < answers.Len(); i++ {
		t := answers.Row(i)
		p, q := int(t[0]), int(t[1])
		if p != q && g.HasEdge(p, q) {
			return true
		}
	}
	return false
}

// --- Example 31 (k = 4): 4-clique through a union-guarded star union ---

// Example31Query returns the k=4 union of Example 31.
func Example31Query() *cq.UCQ {
	return cq.MustParse(`
		Q1(x1,x2,x3) <- R1(x1,z), R2(x2,z), R3(x3,z).
		Q2(x1,x2,z) <- R1(x1,z), R2(x2,z), R3(x3,z).
		Q3(x1,x3,z) <- R1(x1,z), R2(x2,z), R3(x3,z).
		Q4(x2,x3,z) <- R1(x1,z), R2(x2,z), R3(x3,z).
	`)
}

// Tags for Example 31: x1, x2, x3 and the centre z.
const (
	tagX1 uint8 = 11
	tagX2 uint8 = 12
	tagX3 uint8 = 13
	tagZ  uint8 = 14
)

// Example31Instance encodes each edge {u,v} in both directions into R1, R2
// and R3, tagging the first position with the star variable and the second
// with z. Q1's answers are triples with a common neighbour.
func Example31Instance(g *graph.Graph) *database.Instance {
	inst := database.NewInstance()
	rels := []*database.Relation{
		database.NewRelation("R1", 2),
		database.NewRelation("R2", 2),
		database.NewRelation("R3", 2),
	}
	tags := []uint8{tagX1, tagX2, tagX3}
	for _, e := range g.Edges() {
		for _, dir := range [][2]int{{e[0], e[1]}, {e[1], e[0]}} {
			u, v := int64(dir[0]), int64(dir[1])
			for ri, r := range rels {
				r.Append(tagged(u, tags[ri]), tagged(v, tagZ))
			}
		}
	}
	for _, r := range rels {
		inst.AddRelation(r)
	}
	return inst
}

// Example31HasFourClique scans Q1's answers (tag pattern x1,x2,x3) for a
// pairwise-adjacent triple: together with the shared neighbour z it forms a
// 4-clique.
func Example31HasFourClique(g *graph.Graph, answers *database.Relation) bool {
	for i := 0; i < answers.Len(); i++ {
		t := answers.Row(i)
		if !slices.Equal(TagPattern(t), []uint8{tagX1, tagX2, tagX3}) {
			continue
		}
		u := UntagTuple(t)
		a, b, c := int(u[0]), int(u[1]), int(u[2])
		if a != b && a != c && b != c && g.HasEdge(a, b) && g.HasEdge(a, c) && g.HasEdge(b, c) {
			return true
		}
	}
	return false
}

// --- Example 39 (k = 4): 4-clique despite a provided cycle cover ---

// Example39Query returns the first union of Example 39.
func Example39Query() *cq.UCQ {
	return cq.MustParse(`
		Q1(x2,x3,x4) <- R1(x2,x3,x4), R2(x1,x3,x4), R3(x1,x2,x4).
		Q2(x2,x3,x4) <- R1(x2,x3,x1), R2(x4,x3,v).
	`)
}

// Tags for Example 39's four clique variables.
const (
	tag39X1 uint8 = 21
	tag39X2 uint8 = 22
	tag39X3 uint8 = 23
	tag39X4 uint8 = 24
)

// Example39Instance encodes every triangle {a,b,c} (a < b < c) as
// ((a,x2),(b,x3),(c,x4)) in R1, ((a,x1),(b,x3),(c,x4)) in R2 and
// ((a,x1),(b,x2),(c,x4)) in R3.
func Example39Instance(g *graph.Graph) (*database.Instance, int) {
	tris := g.Triangles()
	r1 := database.NewRelation("R1", 3)
	r2 := database.NewRelation("R2", 3)
	r3 := database.NewRelation("R3", 3)
	for _, t := range tris {
		a, b, c := int64(t[0]), int64(t[1]), int64(t[2])
		r1.Append(tagged(a, tag39X2), tagged(b, tag39X3), tagged(c, tag39X4))
		r2.Append(tagged(a, tag39X1), tagged(b, tag39X3), tagged(c, tag39X4))
		r3.Append(tagged(a, tag39X1), tagged(b, tag39X2), tagged(c, tag39X4))
	}
	inst := database.NewInstance()
	inst.AddRelation(r1)
	inst.AddRelation(r2)
	inst.AddRelation(r3)
	return inst, len(tris)
}

// Example39HasFourClique reports whether Q1 produced an answer (tag
// pattern x2,x3,x4): by the construction this happens iff the graph has a
// 4-clique.
func Example39HasFourClique(answers *database.Relation) bool {
	for i := 0; i < answers.Len(); i++ {
		t := answers.Row(i)
		if slices.Equal(TagPattern(t), []uint8{tag39X2, tag39X3, tag39X4}) {
			return true
		}
	}
	return false
}
