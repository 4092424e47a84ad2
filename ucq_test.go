package ucq

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/workload"
)

const example2Src = `
	Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
	Q2(x,y,w) <- R1(x,y), R2(y,w).
`

func TestParseAndClassify(t *testing.T) {
	u := MustParse(example2Src)
	res, err := Classify(u)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if res.Verdict != Tractable {
		t.Errorf("verdict = %v (%s)", res.Verdict, res.Reason)
	}
	if res.Certificate == nil {
		t.Errorf("no certificate attached")
	}
}

func TestClassifyCQClasses(t *testing.T) {
	if got := ClassifyCQ(MustParseCQ("Q(x,y) <- R(x,y).")); got != FreeConnex {
		t.Errorf("class = %v", got)
	}
	if got := ClassifyCQ(MustParseCQ("Q(x,y) <- R(x,z), S(z,y).")); got != AcyclicNotFreeConnex {
		t.Errorf("class = %v", got)
	}
	if got := ClassifyCQ(MustParseCQ("Q(x) <- R(x,y), S(y,z), T(z,x).")); got != Cyclic {
		t.Errorf("class = %v", got)
	}
}

func TestPlanConstantDelayMode(t *testing.T) {
	u := MustParse(example2Src)
	inst := workload.Example2Instance(50, 3, 1)
	p, err := NewPlan(u, inst, nil)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	if p.Mode != ConstantDelay {
		t.Fatalf("mode = %v", p.Mode)
	}
	got := p.Materialize()
	want, err := baseline.EvalUCQ(u, inst)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if got.Len() != want.Len() {
		t.Errorf("answers = %d, want %d", got.Len(), want.Len())
	}
	if p.Count() != want.Len() {
		t.Errorf("Count = %d, want %d", p.Count(), want.Len())
	}
}

func TestPlanNaiveFallback(t *testing.T) {
	// The matrix-multiplication query is intractable: the plan falls back.
	u := MustParse("Q(x,y) <- R1(x,z), R2(z,y).")
	inst := workload.RandomForQuery(u, 40, 8, 2)
	p, err := NewPlan(u, inst, nil)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	if p.Mode != Naive {
		t.Fatalf("mode = %v", p.Mode)
	}
	want, _ := baseline.EvalUCQ(u, inst)
	if got := p.Count(); got != want.Len() {
		t.Errorf("answers = %d, want %d", got, want.Len())
	}
	// ForceNaive works on tractable queries too.
	u2 := MustParse(example2Src)
	inst2 := workload.Example2Instance(20, 2, 3)
	p2, err := NewPlan(u2, inst2, &PlanOptions{ForceNaive: true})
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	if p2.Mode != Naive {
		t.Errorf("ForceNaive ignored")
	}
}

func TestPlanValidatesSchema(t *testing.T) {
	u := MustParse("Q(x,y) <- R1(x,z), R2(z,y).")
	if _, err := NewPlan(u, NewInstance(), nil); err == nil {
		t.Errorf("missing relations accepted")
	}
	inst := NewInstance()
	inst.AddRelation(NewRelation("R1", 3))
	inst.AddRelation(NewRelation("R2", 2))
	if _, err := NewPlan(u, inst, nil); err == nil {
		t.Errorf("arity mismatch accepted")
	}
	if _, err := NewPlan(&UCQ{}, NewInstance(), nil); err == nil {
		t.Errorf("invalid union accepted")
	}
}

func TestDecideUnionWithCyclicCQ(t *testing.T) {
	u := MustParse(`
		Q1(x,y) <- R1(x,y), R2(y,z), R3(z,x).
		Q2(x,y) <- R4(x,y).
	`)
	inst := NewInstance()
	r1 := NewRelation("R1", 2)
	r1.AppendInts(1, 2)
	r2 := NewRelation("R2", 2)
	r2.AppendInts(2, 3)
	r3 := NewRelation("R3", 2)
	r3.AppendInts(3, 1)
	r4 := NewRelation("R4", 2)
	inst.AddRelation(r1)
	inst.AddRelation(r2)
	inst.AddRelation(r3)
	inst.AddRelation(r4)
	// A union with a cyclic member has no certificate: the plan falls back
	// to naive evaluation, and its first Next decides non-emptiness.
	decide := func() bool {
		t.Helper()
		p, err := NewPlan(u, inst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Mode != Naive {
			t.Fatalf("plan mode %v, want naive", p.Mode)
		}
		_, ok := p.Iterator().Next()
		return ok
	}
	if !decide() {
		t.Errorf("no answer, but the triangle is present")
	}
	// Remove the triangle: no answers anywhere.
	inst.AddRelation(NewRelation("R3", 2))
	if decide() {
		t.Errorf("an answer, but none expected")
	}
}

func TestReadWriteRelationCSV(t *testing.T) {
	in := "# comment\n1,2\n3 4\n\n5;6\n"
	rel, err := ReadRelationCSV(strings.NewReader(in), "R")
	if err != nil {
		t.Fatalf("ReadRelationCSV: %v", err)
	}
	if rel.Len() != 3 || rel.Arity() != 2 {
		t.Fatalf("rel = %v", rel)
	}
	var sb strings.Builder
	if err := WriteRelationCSV(&sb, rel); err != nil {
		t.Fatalf("WriteRelationCSV: %v", err)
	}
	if sb.String() != "1,2\n3,4\n5,6\n" {
		t.Errorf("csv = %q", sb.String())
	}
}

func TestReadRelationCSVErrors(t *testing.T) {
	if _, err := ReadRelationCSV(strings.NewReader(""), "R"); err == nil {
		t.Errorf("empty input accepted")
	}
	if _, err := ReadRelationCSV(strings.NewReader("1,2\n1\n"), "R"); err == nil {
		t.Errorf("ragged rows accepted")
	}
	if _, err := ReadRelationCSV(strings.NewReader("a,b\n"), "R"); err == nil {
		t.Errorf("non-integer input accepted")
	}
}

func TestValueHelpers(t *testing.T) {
	for _, x := range []int64{0, 7, -1, math.MinInt64, math.MaxInt64} {
		if int64(V(x)) != x {
			t.Errorf("V(%d) = %v", x, V(x))
		}
	}
}

func TestRandomizedPublicAPIAgainstBaseline(t *testing.T) {
	queries := []string{
		example2Src,
		"Q(a,b) <- R1(a,b), R2(b,c).",
		`
			Q1(x,y) <- R1(x,y).
			Q2(x,y) <- R2(x,y), R3(y).
		`,
	}
	rng := rand.New(rand.NewSource(11))
	for _, src := range queries {
		u := MustParse(src)
		for trial := 0; trial < 5; trial++ {
			inst := workload.RandomForQuery(u, 30, 6, rng.Int63())
			p, err := NewPlan(u, inst, nil)
			if err != nil {
				t.Fatalf("%s: NewPlan: %v", src, err)
			}
			want, err := baseline.EvalUCQ(u, inst)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if got := p.Count(); got != want.Len() {
				t.Errorf("%s trial %d (%v): answers = %d, want %d", src, trial, p.Mode, got, want.Len())
			}
		}
	}
}
