package core

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// boundShape is one shape a bind ran, bound: a member's or a provider
// run's plan and the resolved instance it was bound to.
type boundShape struct {
	label string
	shape *yannakakis.Shape
	plan  *yannakakis.Plan
	inst  *database.Instance
}

// bindShapes binds c over inst as CompiledUnion.Bind does and returns every
// distinct shape it bound: the members, then the provider runs that do not
// share a member's shape.
func bindShapes(t *testing.T, c *CompiledUnion, inst *database.Instance) []boundShape {
	t.Helper()
	p := &UnionPlan{U: c.U, Cert: c.Cert, plans: make([]*yannakakis.Plan, len(c.members))}
	b := newBinder(c, p, inst)
	var out []boundShape
	for i, sh := range c.members {
		plan, err := b.member(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, boundShape{fmt.Sprintf("member %d", i), sh, plan, b.insts[i]})
	}
	for r := range c.runs {
		run := &c.runs[r]
		if run.prov < len(c.members) && run.shape == c.members[run.prov] {
			continue
		}
		plan, err := b.providerPlan(run)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, boundShape{fmt.Sprintf("provider run %d", r), run.shape, plan, b.insts[run.prov]})
	}
	return out
}

var absorbLine = regexp.MustCompile(`absorb atom #(\d+) into atom #(\d+) \((.*)\)`)

// virtualAbsorptions counts a bound shape's absorptions of base atoms into
// virtual atoms, as its plan explains them: implied ones and semijoins.
func virtualAbsorptions(s boundShape) (implied, semijoins int) {
	for _, m := range absorbLine.FindAllStringSubmatch(s.plan.Explain(), -1) {
		atom, _ := strconv.Atoi(m[1])
		into, _ := strconv.Atoi(m[2])
		if s.shape.Q.Atoms[atom].Virtual || !s.shape.Q.Atoms[into].Virtual {
			continue
		}
		if m[3] == "semijoin" {
			semijoins++
		} else {
			implied++
		}
	}
	return implied, semijoins
}

// checkAgainstUnmarked compares every shape the bind of c over inst runs
// with the same query compiled directly by yannakakis.Compile, which marks
// no absorption implied, bound to the same resolved instance: the plans
// must explain alike (the same steps and top row counts) but for the
// implied annotation, and materialize the same rows in the same order.
func checkAgainstUnmarked(t *testing.T, label string, c *CompiledUnion, inst *database.Instance) (implied, semijoins int) {
	t.Helper()
	for _, s := range bindShapes(t, c, inst) {
		ref, err := yannakakis.Compile(s.shape.Q, cq.NewVarSet(s.shape.SVars...))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Bind(s.inst)
		if err != nil {
			t.Fatal(err)
		}
		got := strings.ReplaceAll(s.plan.Explain(), "implied by its provider: no semijoin", "semijoin")
		if got != want.Explain() {
			t.Fatalf("%s, %s: plan differs from the unmarked one\ngot:\n%s\nunmarked:\n%s", label, s.label, s.plan.Explain(), want.Explain())
		}
		if g, w := s.plan.Materialize().Rows(), want.Materialize().Rows(); !slices.EqualFunc(g, w, database.Tuple.Equal) {
			t.Fatalf("%s, %s: %d answers, unmarked %d\ngot:  %v\nwant: %v", label, s.label, len(g), len(w), g, w)
		}
		i, n := virtualAbsorptions(s)
		implied, semijoins = implied+i, semijoins+n
	}
	return implied, semijoins
}

// overlayOf returns inst with one relation replaced by a few random rows
// over its domain, as delta evaluation binds the union.
func overlayOf(u *cq.UCQ, inst *database.Instance, rng *rand.Rand, dom int64) *database.Instance {
	schema := u.Schema()
	d := schema[rng.Intn(len(schema))]
	delta := database.NewRelation(d.Name, d.Arity)
	for i := 0; i < 1+rng.Intn(6); i++ {
		row := make([]int64, d.Arity)
		for c := range row {
			row[c] = rng.Int63n(dom)
		}
		delta.AppendInts(row...)
	}
	delta.Dedup()
	out := inst.ShallowClone()
	out.AddRelation(delta)
	return out
}

func compileCertified(t *testing.T, u *cq.UCQ) (*CompiledUnion, bool) {
	t.Helper()
	cert, ok := FindCertificate(u, nil)
	if !ok {
		return nil, false
	}
	c, err := Compile(u, cert)
	if err != nil {
		t.Fatal(err)
	}
	return c, true
}

// TestImpliedAbsorptionsMatchUnmarkedPlans is the reference for skipping
// implied absorptions: over the gallery's unions and RandomProvidedUCQ
// draws, on random instances and on delta overlays of them, every member
// and provider-run plan equals the unmarked plan of the same query over
// the same instance. It also pins how many absorptions into virtual atoms
// each gallery union skips.
func TestImpliedAbsorptionsMatchUnmarkedPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	for _, ex := range []struct {
		name               string
		src                string
		implied, semijoins int
	}{
		{"Example 2", example2, 2, 0},
		{"Example 13", example13, 8, 1},
		{"Example 21", example21, 4, 0},
		{"Example 36", example36, 1, 2},
	} {
		u := cq.MustParse(ex.src)
		c, ok := compileCertified(t, u)
		if !ok {
			t.Fatalf("%s not certified", ex.name)
		}
		for trial := 0; trial < 8; trial++ {
			inst := randomInstance(u, rng, 30, 4)
			if trial%2 == 1 {
				inst = overlayOf(u, inst, rng, 4)
			}
			implied, semijoins := checkAgainstUnmarked(t, fmt.Sprintf("%s trial %d", ex.name, trial), c, inst)
			if implied != ex.implied || semijoins != ex.semijoins {
				t.Fatalf("%s: %d of %d absorptions into virtual atoms implied, want %d of %d",
					ex.name, implied, implied+semijoins, ex.implied, ex.implied+ex.semijoins)
			}
		}
	}

	implied, semijoins := 0, 0
	for i := 0; i < 150; i++ {
		u := workload.RandomProvidedUCQ(rng)
		c, ok := compileCertified(t, u)
		if !ok {
			continue
		}
		inst := workload.RandomForQuery(u, 6+rng.Intn(20), int64(2+rng.Intn(4)), rng.Int63())
		if i%2 == 1 {
			inst = overlayOf(u, inst, rng, 4)
		}
		m, n := checkAgainstUnmarked(t, fmt.Sprintf("draw %d: %s", i, u), c, inst)
		implied, semijoins = implied+m, semijoins+n
	}
	if implied == 0 || semijoins == 0 {
		t.Errorf("random provided unions: %d implied absorptions and %d semijoins into virtual atoms; want both", implied, semijoins)
	}
}

// TestRandomProvidedUCQReachesLemma8: the generator exists to reach the
// provider runs RandomUCQ misses, so at least a quarter of its draws must
// certify with a virtual atom.
func TestRandomProvidedUCQReachesLemma8(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const draws = 400
	virtual := 0
	for i := 0; i < draws; i++ {
		u := workload.RandomProvidedUCQ(rng)
		cert, ok := FindCertificate(u, nil)
		if !ok {
			continue
		}
		for _, e := range cert.Extensions {
			if len(e.Virtuals) > 0 {
				virtual++
				break
			}
		}
	}
	t.Logf("%d of %d draws certify with a virtual atom", virtual, draws)
	if 4*virtual < draws {
		t.Errorf("%d of %d draws certify with a virtual atom; want at least a quarter", virtual, draws)
	}
}

// TestExplainNamesImpliedAbsorptions pins Example 2's two implied
// absorptions: Q1's R1(x,z) and R2(z,y) into the virtual atom _P0_0(x,y,z)
// that Q2 provides, neither of which the bind semijoins.
func TestExplainNamesImpliedAbsorptions(t *testing.T) {
	u := cq.MustParse(example2)
	c, _ := compileCertified(t, u)
	plans := bindShapes(t, c, randomInstance(u, rand.New(rand.NewSource(2)), 20, 4))
	ex := plans[0].plan.Explain()
	for _, want := range []string{
		"  absorb atom #0 into atom #3 (implied by its provider: no semijoin)\n",
		"  absorb atom #1 into atom #3 (implied by its provider: no semijoin)\n",
	} {
		if !strings.Contains(ex, want) {
			t.Errorf("Q1's plan does not explain %q:\n%s", want, ex)
		}
	}
	if strings.Contains(ex, "(semijoin)") {
		t.Errorf("Q1's plan semijoins an absorption:\n%s", ex)
	}
}
