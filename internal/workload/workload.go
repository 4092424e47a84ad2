// Package workload builds the synthetic database instances used by the
// examples and the experiment harness: random instances over a query's
// schema, layered chain data for the path queries of Examples 2 and 13,
// and scaling series with controlled output sizes.
package workload

import (
	"math/rand"

	"repro/internal/cq"
	"repro/internal/database"
)

// Random fills every relation of the schema with `rows` uniform tuples over
// the domain [0, width), deterministically from seed.
func Random(schema []cq.RelDecl, rows int, width int64, seed int64) *database.Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := database.NewInstance()
	for _, d := range schema {
		r := database.NewRelation(d.Name, d.Arity)
		row := make([]int64, d.Arity)
		for i := 0; i < rows; i++ {
			for c := range row {
				row[c] = rng.Int63n(width)
			}
			r.AppendInts(row...)
		}
		r.Dedup()
		inst.AddRelation(r)
	}
	return inst
}

// RandomForQuery is Random over the union's schema.
func RandomForQuery(u *cq.UCQ, rows int, width int64, seed int64) *database.Instance {
	return Random(u.Schema(), rows, width, seed)
}

// Chain builds a layered chain instance for path-shaped queries: relation
// names[i] connects layer i to layer i+1, holding `degree` out-edges per
// layer-i vertex, with `width` vertices per layer. Layer j's vertices are
// the values j·width .. j·width+width-1, so joins only happen between
// adjacent layers. Binary relations get (u, v) tuples; an arity-3 relation
// gets (u, v, v') with two successors, generalising Example 13's R5.
func Chain(names []string, arities []int, width, degree int, seed int64) *database.Instance {
	if len(names) != len(arities) {
		panic("workload: names and arities differ in length")
	}
	rng := rand.New(rand.NewSource(seed))
	inst := database.NewInstance()
	for i, name := range names {
		arity := arities[i]
		r := database.NewRelation(name, arity)
		base := int64(i) * int64(width)
		next := base + int64(width)
		for u := int64(0); u < int64(width); u++ {
			for d := 0; d < degree; d++ {
				row := make([]int64, arity)
				row[0] = base + u
				for c := 1; c < arity; c++ {
					row[c] = next + rng.Int63n(int64(width))
				}
				r.AppendInts(row...)
			}
		}
		r.Dedup()
		inst.AddRelation(r)
	}
	return inst
}

// SkewedJoin builds a two-relation join instance for Q(x,y,w) <- R1(x,y),
// R2(y,w) in which one join value dominates: join value 0 carries heavyLeft
// R1 rows (distinct x values) and heavyRight R2 rows (distinct w values),
// while join values 1..lightKeys each carry lightLeft R1 rows and
// lightRight R2 rows. All x values are globally distinct, so the join has
// exactly heavyLeft·heavyRight + lightKeys·lightLeft·lightRight answers,
// concentrated on the heavy key — the output-skew regime of unbalanced
// triangle/star workloads. Row insertion order is shuffled from seed.
func SkewedJoin(heavyLeft, heavyRight, lightKeys, lightLeft, lightRight int, seed int64) *database.Instance {
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ a, b int64 }
	var rows1, rows2 []pair
	x := int64(0)
	w := int64(0)
	addKey := func(y int64, left, right int) {
		for i := 0; i < left; i++ {
			rows1 = append(rows1, pair{x, y})
			x++
		}
		for i := 0; i < right; i++ {
			rows2 = append(rows2, pair{y, w})
			w++
		}
	}
	addKey(0, heavyLeft, heavyRight)
	for k := 1; k <= lightKeys; k++ {
		addKey(int64(k), lightLeft, lightRight)
	}
	rng.Shuffle(len(rows1), func(i, j int) { rows1[i], rows1[j] = rows1[j], rows1[i] })
	rng.Shuffle(len(rows2), func(i, j int) { rows2[i], rows2[j] = rows2[j], rows2[i] })
	inst := database.NewInstance()
	r1 := database.NewRelation("R1", 2)
	for _, p := range rows1 {
		r1.AppendInts(p.a, p.b)
	}
	r2 := database.NewRelation("R2", 2)
	for _, p := range rows2 {
		r2.AppendInts(p.a, p.b)
	}
	inst.AddRelation(r1)
	inst.AddRelation(r2)
	return inst
}

// Example2Instance builds data for Example 2's schema (R1, R2, R3 binary)
// with `width` vertices per layer and `degree` out-edges per vertex.
// The instance size grows linearly in width·degree.
func Example2Instance(width, degree int, seed int64) *database.Instance {
	return Chain([]string{"R1", "R2", "R3"}, []int{2, 2, 2}, width, degree, seed)
}

// Example13Instance builds data for Example 13's schema (R1..R4 binary, R5
// ternary).
func Example13Instance(width, degree int, seed int64) *database.Instance {
	return Chain(
		[]string{"R1", "R2", "R3", "R4", "R5"},
		[]int{2, 2, 2, 2, 3},
		width, degree, seed,
	)
}
