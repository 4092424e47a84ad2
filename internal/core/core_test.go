package core

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/enumeration"
)

// randomInstance fills every relation of the union's schema with random
// tuples over a small domain.
func randomInstance(u *cq.UCQ, rng *rand.Rand, rows int, dom int64) *database.Instance {
	inst := database.NewInstance()
	for _, d := range u.Schema() {
		r := database.NewRelation(d.Name, d.Arity)
		for i := 0; i < rows; i++ {
			row := make([]int64, d.Arity)
			for c := range row {
				row[c] = rng.Int63n(dom)
			}
			r.AppendInts(row...)
		}
		r.Dedup()
		inst.AddRelation(r)
	}
	return inst
}

// checkUnionAgainstBaseline certifies u, evaluates it, and compares with
// the naive evaluator.
func checkUnionAgainstBaseline(t *testing.T, u *cq.UCQ, inst *database.Instance) {
	t.Helper()
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatalf("no certificate found for\n%s", u)
	}
	plan, err := bindUnion(u, cert, inst)
	if err != nil {
		t.Fatalf("bindUnion: %v", err)
	}
	got := plan.Materialize().SortedRows()
	wantRel, err := baseline.EvalUCQ(u, inst)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want := wantRel.SortedRows()
	if len(got) != len(want) {
		t.Fatalf("got %d answers, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("answer %d = %v, want %v", i, got[i], want[i])
		}
	}
	// No duplicates by the rank rule; double-check.
	seen := make(map[string]bool, len(got))
	for _, g := range got {
		if seen[g.Key()] {
			t.Fatalf("duplicate answer %v", g)
		}
		seen[g.Key()] = true
	}
}

const example2 = `
	Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
	Q2(x,y,w) <- R1(x,y), R2(y,w).
`

const example13 = `
	Q1(x,y,v,u) <- R1(x,z1), R2(z1,z2), R3(z2,z3), R4(z3,y), R5(y,v,u).
	Q2(x,y,v,u) <- R1(x,y), R2(y,v), R3(v,z1), R4(z1,u), R5(u,t1,t2).
	Q3(x,y,v,u) <- R1(x,z1), R2(z1,y), R3(y,v), R4(v,u), R5(u,t1,t2).
`

// Example 21 as two body-isomorphic CQs sharing one body, heads rewritten
// per the paper's one-body notation.
const example21 = `
	Q1(w,y,x,z) <- R1(w,v), R2(v,y), R3(y,z), R4(z,x).
	Q2(x,y,w,v) <- R1(w,v), R2(v,y), R3(y,z), R4(z,x).
`

const example36 = `
	Q1(x,y,z,w) <- R1(y,z,w,x), R2(t,y,w), R3(t,z,w), R4(t,y,z).
	Q2(x,y,z,w) <- R1(x,z,w,v), R2(y,x,w).
`

func TestExample2Certificate(t *testing.T) {
	u := cq.MustParse(example2)
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatalf("Example 2 not certified free-connex")
	}
	if err := cert.Verify(u); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Q1 needs an extension; Q2 is free-connex on its own.
	if len(cert.Extensions[0].Virtuals) == 0 {
		t.Errorf("Q1 certified without a virtual atom")
	}
	if len(cert.Extensions[1].Virtuals) != 0 {
		t.Errorf("free-connex Q2 got virtual atoms: %v", cert.Extensions[1])
	}
	// The paper's extension adds R'(x,z,y), provided by Q2.
	va := cert.Extensions[0].Virtuals[0]
	if va.Prov.ProviderIndex != 1 {
		t.Errorf("provider = Q%d, want Q2", va.Prov.ProviderIndex+1)
	}
	if !va.Atom.VarSet().Equal(cq.NewVarSet("x", "z", "y")) {
		t.Logf("note: provided set %v differs from the paper's {x,y,z} but verifies", va.Atom.VarSet())
	}
}

func TestExample2Evaluation(t *testing.T) {
	u := cq.MustParse(example2)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		checkUnionAgainstBaseline(t, u, randomInstance(u, rng, 40, 6))
	}
}

func TestExample13Certificate(t *testing.T) {
	// All three CQs are intractable alone; the union is free-connex via
	// recursive union extensions (the paper's flagship example).
	u := cq.MustParse(example13)
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatalf("Example 13 not certified free-connex")
	}
	if err := cert.Verify(u); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for i, e := range cert.Extensions {
		if len(e.Virtuals) == 0 {
			t.Errorf("Q%d certified without virtual atoms; all three are intractable alone", i+1)
		}
	}
}

func TestExample13Evaluation(t *testing.T) {
	u := cq.MustParse(example13)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		checkUnionAgainstBaseline(t, u, randomInstance(u, rng, 25, 4))
	}
}

func TestExample21CertificateAndEvaluation(t *testing.T) {
	u := cq.MustParse(example21)
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatalf("Example 21 not certified free-connex")
	}
	if err := cert.Verify(u); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		checkUnionAgainstBaseline(t, u, randomInstance(u, rng, 30, 5))
	}
}

func TestExample36CertificateAndEvaluation(t *testing.T) {
	// Q1 is cyclic; the union extension resolves the cycle (Section 5.2).
	u := cq.MustParse(example36)
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatalf("Example 36 not certified free-connex")
	}
	if err := cert.Verify(u); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		checkUnionAgainstBaseline(t, u, randomInstance(u, rng, 20, 4))
	}
}

func TestIntractableUnionsNotCertified(t *testing.T) {
	cases := map[string]string{
		"Example 20 (not free-path guarded)": `
			Q1(x,y,v) <- R1(x,z), R2(z,y), R3(y,v), R4(v,w).
			Q2(x,y,v) <- R1(w,v), R2(v,y), R3(y,z), R4(z,x).
		`,
		"Example 22 (not bypass guarded)": `
			Q1(x,y,t) <- R1(x,w,t), R2(y,w,t).
			Q2(x,y,w) <- R1(x,w,t), R2(y,w,t).
		`,
		"Example 18 (intractable CQs)": `
			Q1(x,y) <- R1(x,y), R2(y,u), R3(x,u).
			Q2(x,y) <- R1(y,v), R2(v,x), R3(y,x).
			Q3(x,y) <- R1(x,z), R2(y,z).
		`,
		"Example 31 (k=4, ad-hoc 4-clique hardness)": `
			Q1(x1,x2,x3) <- R1(x1,z), R2(x2,z), R3(x3,z).
			Q2(x1,x2,z) <- R1(x1,z), R2(x2,z), R3(x3,z).
			Q3(x1,x3,z) <- R1(x1,z), R2(x2,z), R3(x3,z).
			Q4(x2,x3,z) <- R1(x1,z), R2(x2,z), R3(x3,z).
		`,
		"single intractable CQ": `
			Q(x,y) <- R1(x,z), R2(z,y).
		`,
		"single cyclic CQ": `
			Q(x,y,z) <- R1(x,y), R2(y,z), R3(z,x).
		`,
	}
	for name, src := range cases {
		u := cq.MustParse(src)
		if _, ok := FindCertificate(u, nil); ok {
			t.Errorf("%s: wrongly certified free-connex", name)
		}
	}
}

func TestSingleFreeConnexCQCertified(t *testing.T) {
	u := cq.MustParse("Q(x,y,w) <- R1(x,y), R2(y,w).")
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatalf("free-connex CQ not certified")
	}
	if len(cert.Extensions[0].Virtuals) != 0 {
		t.Errorf("plain free-connex CQ got virtual atoms")
	}
}

func TestUnionOfTractableCQs(t *testing.T) {
	u := cq.MustParse(`
		Q1(x,y) <- R1(x,y).
		Q2(x,y) <- R2(x,y), R3(y,w), R4(w).
	`)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		checkUnionAgainstBaseline(t, u, randomInstance(u, rng, 30, 5))
	}
}

func TestCertificateVerifyRejectsTampering(t *testing.T) {
	u := cq.MustParse(example2)
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatalf("no certificate")
	}
	// Wrong base.
	bad := &Certificate{Extensions: []*ExtendedCQ{cert.Extensions[1], cert.Extensions[1]}}
	if err := bad.Verify(u); err == nil {
		t.Errorf("tampered certificate (wrong base) verified")
	}
	// Wrong extension count.
	bad2 := &Certificate{Extensions: cert.Extensions[:1]}
	if err := bad2.Verify(u); err == nil {
		t.Errorf("truncated certificate verified")
	}
	// Tampered provided variables: replace the virtual atom with one whose
	// variables are not an image of the provision.
	tampered := cert.Extensions[0].Clone()
	tampered.BaseIndex = 0
	va := tampered.Virtuals[0]
	va.Atom = cq.Atom{Rel: va.Atom.Rel, Vars: []cq.Variable{"x", "w"}, Virtual: true}
	tampered.Virtuals[0] = va
	bad3 := &Certificate{Extensions: []*ExtendedCQ{tampered, cert.Extensions[1]}}
	if err := bad3.Verify(u); err == nil {
		t.Errorf("tampered certificate (wrong provided set) verified")
	}
	// Compile verifies: a tampered certificate never reaches Bind.
	if _, err := Compile(u, bad3); err == nil {
		t.Errorf("tampered certificate (wrong provided set) compiled")
	}
}

// TestCertifyVerifiesOnce pins what a certified Prepare pays for checking
// its certificate: Certify, the one call Prepare makes, verifies it exactly
// once (the search returns it unverified and Compile verifies it), while
// FindCertificate keeps its contract of returning a verified certificate.
func TestCertifyVerifiesOnce(t *testing.T) {
	for _, src := range []string{example2, example13} {
		u := cq.MustParse(src)
		before := verifications.Load()
		c, ok, err := Certify(u, nil)
		if err != nil || !ok {
			t.Fatalf("Certify(%s) = %v, %v", u, ok, err)
		}
		if n := verifications.Load() - before; n != 1 {
			t.Errorf("Certify(%s) verified %d times, want 1", u, n)
		}
		if err := c.Cert.Verify(u); err != nil {
			t.Errorf("Certify(%s) compiled a certificate that does not verify: %v", u, err)
		}
		before = verifications.Load()
		if _, ok := FindCertificate(u, nil); !ok {
			t.Fatalf("FindCertificate(%s) found none", u)
		}
		if n := verifications.Load() - before; n != 1 {
			t.Errorf("FindCertificate(%s) verified %d times, want 1", u, n)
		}
	}
	// A union the bounded search cannot certify is no error.
	u := cq.MustParse("Q(x,y) <- R1(x,z), R2(z,y).")
	if _, ok, err := Certify(u, nil); ok || err != nil {
		t.Errorf("Certify(%s) = %v, %v; want not certified and no error", u, ok, err)
	}
}

func TestAlgorithmOneUnion(t *testing.T) {
	u := cq.MustParse(`
		Q1(x,y) <- R1(x,y).
		Q2(x,y) <- R2(x,y).
	`)
	inst := database.NewInstance()
	r1 := database.NewRelation("R1", 2)
	r1.AppendInts(1, 2)
	r1.AppendInts(3, 4)
	inst.AddRelation(r1)
	r2 := database.NewRelation("R2", 2)
	r2.AppendInts(3, 4)
	r2.AppendInts(5, 6)
	inst.AddRelation(r2)

	it, err := NewAlgorithmOneUnion(u, inst)
	if err != nil {
		t.Fatalf("NewAlgorithmOneUnion: %v", err)
	}
	got := enumeration.Collect(it)
	if len(got) != 3 {
		t.Fatalf("union = %v, want 3 answers", got)
	}
	seen := make(map[string]bool)
	for _, g := range got {
		if seen[g.Key()] {
			t.Errorf("duplicate %v", g)
		}
		seen[g.Key()] = true
	}
	// Requires exactly two CQs.
	if _, err := NewAlgorithmOneUnion(cq.MustParse("Q(x) <- R1(x,x)."), inst); err == nil {
		t.Errorf("accepted single-CQ union")
	}
}

func TestAlgorithmOneUnionRandomized(t *testing.T) {
	u := cq.MustParse(`
		Q1(x,y) <- R1(x,y), R2(y,z), R3(z).
		Q2(x,y) <- R4(x,y), R5(y).
	`)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(u, rng, 25, 5)
		it, err := NewAlgorithmOneUnion(u, inst)
		if err != nil {
			t.Fatalf("NewAlgorithmOneUnion: %v", err)
		}
		got := enumeration.Collect(it)
		want, err := baseline.EvalUCQ(u, inst)
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		if len(got) != want.Len() {
			t.Fatalf("trial %d: got %d answers, want %d", trial, len(got), want.Len())
		}
		seen := make(map[string]bool)
		for _, g := range got {
			if seen[g.Key()] {
				t.Fatalf("duplicate %v", g)
			}
			seen[g.Key()] = true
		}
	}
}

func TestUnionPlanStats(t *testing.T) {
	u := cq.MustParse(example2)
	cert, _ := FindCertificate(u, nil)
	inst := randomInstance(u, rand.New(rand.NewSource(7)), 30, 5)
	plan, err := bindUnion(u, cert, inst)
	if err != nil {
		t.Fatalf("bindUnion: %v", err)
	}
	st := plan.Stats()
	if st.ProviderRuns == 0 {
		t.Errorf("no provider runs recorded")
	}
	if st.BonusAnswers == 0 {
		t.Errorf("no bonus answers recorded (provider produced nothing?)")
	}
}

func TestUnionPlanIteratorReusable(t *testing.T) {
	u := cq.MustParse(example2)
	cert, _ := FindCertificate(u, nil)
	inst := randomInstance(u, rand.New(rand.NewSource(8)), 20, 4)
	plan, err := bindUnion(u, cert, inst)
	if err != nil {
		t.Fatalf("bindUnion: %v", err)
	}
	a := len(enumeration.Collect(plan.Iterator()))
	b := len(enumeration.Collect(plan.Iterator()))
	if a != b {
		t.Errorf("iterator runs disagree: %d vs %d", a, b)
	}
}
