package reduction

import (
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/graph"
	"repro/internal/matrix"
)

const (
	maxPayload = 1<<(payloadBits-1) - 1
	minPayload = -1 << (payloadBits - 1)
)

func TestTaggedValueRoundTrip(t *testing.T) {
	cases := []struct {
		payload int64
		tag     uint8
	}{
		{0, 0}, {1, 0}, {-1, 0}, {42, 7}, {-42, 7}, {maxPayload, 255}, {minPayload, 1},
	}
	for _, tc := range cases {
		if c, tag := untag(tagged(tc.payload, tc.tag)); c != tc.payload || tag != tc.tag {
			t.Errorf("untag(tagged(%d, %d)) = %d, %d", tc.payload, tc.tag, c, tag)
		}
	}
	// Distinct tags yield distinct values even with equal payloads.
	if tagged(9, 1) == tagged(9, 2) {
		t.Errorf("tags did not separate domains")
	}
}

func TestTaggedValueRoundTripQuick(t *testing.T) {
	f := func(payload int64, tag uint8) bool {
		p := payload % maxPayload
		c, got := untag(tagged(p, tag))
		return c == p && got == tag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaggedValueOutOfRangePanics(t *testing.T) {
	for _, c := range []int64{maxPayload + 1, minPayload - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for out-of-range payload %d", c)
				}
			}()
			tagged(c, 0)
		}()
	}
}

func TestTagCQInstanceLemma14(t *testing.T) {
	// Example 9's union: no body-homomorphism from Q2 into Q1, so over the
	// tagged instance the union's answers are exactly Q1's.
	u := cq.MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w), R4(y).
	`)
	q1 := u.CQs[0]
	inst := database.NewInstance()
	for name, rows := range map[string][][2]int64{
		"R1": {{1, 2}, {3, 4}},
		"R2": {{2, 5}, {4, 6}},
		"R3": {{5, 7}, {6, 8}},
	} {
		r := database.NewRelation(name, 2)
		for _, row := range rows {
			r.AppendInts(row[0], row[1])
		}
		inst.AddRelation(r)
	}
	r4 := database.NewRelation("R4", 1)
	r4.AppendInts(2)
	inst.AddRelation(r4)

	sigma, err := TagCQInstance(q1, inst, u.Schema())
	if err != nil {
		t.Fatalf("TagCQInstance: %v", err)
	}
	unionAnswers, err := baseline.EvalUCQ(u, sigma)
	if err != nil {
		t.Fatalf("EvalUCQ: %v", err)
	}
	q1Answers, err := baseline.EvalCQ(q1, inst)
	if err != nil {
		t.Fatalf("EvalCQ: %v", err)
	}
	if unionAnswers.Len() != q1Answers.Len() {
		t.Fatalf("union over σ(I) has %d answers, Q1 over I has %d",
			unionAnswers.Len(), q1Answers.Len())
	}
	// τ (untagging) maps the union's answers onto Q1's.
	want := make(map[string]bool)
	for _, row := range q1Answers.Rows() {
		want[row.Key()] = true
	}
	for _, row := range unionAnswers.Rows() {
		if !want[UntagTuple(row).Key()] {
			t.Errorf("untagged answer %v not a Q1 answer", UntagTuple(row))
		}
	}
}

func TestTagCQInstanceErrors(t *testing.T) {
	q := cq.MustParseCQ("Q(x) <- R(x).")
	if _, err := TagCQInstance(q, database.NewInstance(), nil); err == nil {
		t.Errorf("missing relation accepted")
	}
	bad := database.NewInstance()
	bad.AddRelation(database.NewRelation("R", 2))
	if _, err := TagCQInstance(q, bad, nil); err == nil {
		t.Errorf("arity mismatch accepted")
	}
}

func TestTagPatternAndVarTags(t *testing.T) {
	tags := VarTags(cq.NewVarSet("a", "b"))
	if tags["a"] == 0 || tags["a"] == tags["b"] {
		t.Errorf("tags = %v", tags)
	}
	tp := TagPattern(database.Tuple{tagged(1, 3), database.V(2)})
	if tp[0] != 3 || tp[1] != 0 {
		t.Errorf("TagPattern = %v", tp)
	}
}

// example20 is the unguarded body-isomorphic pair of Example 20.
const example20 = `
	Q1(x,y,v) <- R1(x,z), R2(z,y), R3(y,v), R4(v,w).
	Q2(x,y,v) <- R1(w,v), R2(v,y), R3(y,z), R4(z,x).
`

func TestMatMulEncodingExample20(t *testing.T) {
	u := cq.MustParse(example20)
	enc, err := NewMatMulEncoding(u)
	if err != nil {
		t.Fatalf("NewMatMulEncoding: %v", err)
	}
	for seed := int64(0); seed < 5; seed++ {
		n := 12
		a := matrix.Random(n, 0.3, seed)
		b := matrix.Random(n, 0.3, seed+50)
		inst := enc.Instance(a, b)
		answers, err := baseline.EvalUCQ(u, inst)
		if err != nil {
			t.Fatalf("EvalUCQ: %v", err)
		}
		got := enc.DecodeProduct(answers, n)
		want := a.Multiply(b)
		if !got.Equal(want) {
			t.Errorf("seed %d: decoded product differs from direct product (got %d ones, want %d)",
				seed, got.Ones(), want.Ones())
		}
		// The non-target CQ contributes at most 2n² answers.
		nonTarget := answers.Len() - want.Ones()
		if nonTarget > enc.OtherAnswerBound(n) {
			t.Errorf("seed %d: non-target answers %d exceed bound %d", seed, nonTarget, enc.OtherAnswerBound(n))
		}
	}
}

func TestMatMulEncodingRejectsGuardedUnion(t *testing.T) {
	// Example 21 is mutually guarded: Lemma 25 must not apply.
	u := cq.MustParse(`
		Q1(w,y,x,z) <- R1(w,v), R2(v,y), R3(y,z), R4(z,x).
		Q2(x,y,w,v) <- R1(w,v), R2(v,y), R3(y,z), R4(z,x).
	`)
	if _, err := NewMatMulEncoding(u); err == nil {
		t.Errorf("Lemma 25 applied to a guarded union")
	}
	// Non-body-isomorphic unions are rejected.
	u2 := cq.MustParse(`
		Q1(x,y) <- R1(x,y).
		Q2(x,y) <- R2(x,y).
	`)
	if _, err := NewMatMulEncoding(u2); err == nil {
		t.Errorf("Lemma 25 applied to non-isomorphic bodies")
	}
	// Wrong CQ count.
	if _, err := NewMatMulEncoding(cq.MustParse("Q(x) <- R(x).")); err == nil {
		t.Errorf("Lemma 25 applied to a single CQ")
	}
}

func TestExample18Reduction(t *testing.T) {
	u := Example18Query()
	for seed := int64(0); seed < 6; seed++ {
		g := graph.ErdosRenyi(18, 0.15+0.05*float64(seed), seed)
		inst := Example18Instance(g)
		answers, err := baseline.EvalUCQ(u, inst)
		if err != nil {
			t.Fatalf("EvalUCQ: %v", err)
		}
		pairs := Example18DecodeTriangles(answers)
		if (len(pairs) > 0) != g.HasTriangle() {
			t.Errorf("seed %d: decoded %d pairs, HasTriangle=%v", seed, len(pairs), g.HasTriangle())
		}
		// Every decoded pair must extend to a triangle.
		for _, p := range pairs {
			a, b := p[0], p[1]
			if !g.HasEdge(a, b) {
				t.Errorf("seed %d: decoded pair (%d,%d) not an edge", seed, a, b)
				continue
			}
			found := false
			for c := 0; c < g.N(); c++ {
				if c != a && c != b && g.HasEdge(a, c) && g.HasEdge(b, c) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("seed %d: pair (%d,%d) has no triangle completion", seed, a, b)
			}
		}
		// Q3 returns no answers over this construction (paper's claim).
		q3 := u.CQs[2]
		q3Answers, err := baseline.EvalCQ(q3, inst)
		if err != nil {
			t.Fatalf("EvalCQ(Q3): %v", err)
		}
		if q3Answers.Len() != 0 {
			t.Errorf("seed %d: Q3 produced %d answers, want 0", seed, q3Answers.Len())
		}
	}
}

func TestExample22Reduction(t *testing.T) {
	u := Example22Query()
	for seed := int64(0); seed < 6; seed++ {
		g := graph.ErdosRenyi(16, 0.25, seed)
		if seed%2 == 0 {
			graph.PlantClique(g, 4, seed)
		}
		inst, tris := Example22Instance(g)
		if tris != len(g.Triangles()) {
			t.Fatalf("triangle count mismatch")
		}
		answers, err := baseline.EvalUCQ(u, inst)
		if err != nil {
			t.Fatalf("EvalUCQ: %v", err)
		}
		got := Example22HasFourClique(g, answers)
		want := g.HasFourClique()
		if got != want {
			t.Errorf("seed %d: reduction says 4-clique=%v, direct says %v", seed, got, want)
		}
	}
}

func TestExample31Reduction(t *testing.T) {
	u := Example31Query()
	for seed := int64(0); seed < 6; seed++ {
		g := graph.ErdosRenyi(14, 0.25, seed)
		if seed%2 == 1 {
			graph.PlantClique(g, 4, seed+9)
		}
		inst := Example31Instance(g)
		answers, err := baseline.EvalUCQ(u, inst)
		if err != nil {
			t.Fatalf("EvalUCQ: %v", err)
		}
		got := Example31HasFourClique(g, answers)
		want := g.HasFourClique()
		if got != want {
			t.Errorf("seed %d: reduction says 4-clique=%v, direct says %v", seed, got, want)
		}
	}
}

func TestExample39Reduction(t *testing.T) {
	u := Example39Query()
	for seed := int64(0); seed < 6; seed++ {
		g := graph.ErdosRenyi(14, 0.3, seed)
		if seed%2 == 1 {
			graph.PlantClique(g, 4, seed+21)
		}
		inst, _ := Example39Instance(g)
		answers, err := baseline.EvalUCQ(u, inst)
		if err != nil {
			t.Fatalf("EvalUCQ: %v", err)
		}
		got := Example39HasFourClique(answers)
		want := g.HasFourClique()
		if got != want {
			t.Errorf("seed %d: reduction says 4-clique=%v, direct says %v", seed, got, want)
		}
	}
}
