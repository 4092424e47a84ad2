package ucq

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/workload"
)

// stubCPUs pins the core count the Auto planner sees for one test.
func stubCPUs(t *testing.T, n int) {
	t.Helper()
	old := autoCPUs
	autoCPUs = func() int { return n }
	t.Cleanup(func() { autoCPUs = old })
}

// TestAutoContradictsExplicitKnobs pins the validation rule: Auto means
// "the planner decides", so combining it with a hand-picked worker count
// is a typed OptionsError, not a silent override.
func TestAutoContradictsExplicitKnobs(t *testing.T) {
	u := MustParse("Q(x,y) <- R1(x,z), R2(z,y).")
	_, err := NewPlan(u, example2SmallInstance(), &PlanOptions{Auto: true, Workers: 4})
	var oe *OptionsError
	if !errors.As(err, &oe) || oe.Field != "Auto" {
		t.Errorf("err = %v, want OptionsError on Auto", err)
	}
}

// TestAutoResolvedOptionsAlwaysValid is the end-to-end property behind the
// cost model: over random queries, instances and core counts, an Auto bind
// always succeeds, always records a decision, and the decision's worker
// count is one explicit PlanOptions validation would accept.
func TestAutoResolvedOptionsAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < 120; i++ {
		stubCPUs(t, []int{1, 2, 4, 8, 32}[rng.Intn(5)])
		u := workload.RandomUCQ(rng)
		inst := workload.RandomForQuery(u, 8+rng.Intn(30), int64(2+rng.Intn(5)), rng.Int63())
		pq, err := Prepare(u, nil)
		if err != nil {
			t.Fatalf("case %d: prepare: %v\n%s", i, err, u)
		}
		p, err := pq.BindExec(inst, &PlanOptions{Auto: true})
		if err != nil {
			t.Fatalf("case %d: auto bind: %v\n%s", i, err, u)
		}
		d := p.Decision()
		if d == nil {
			t.Fatalf("case %d: auto bind recorded no decision", i)
		}
		// The resolved worker count round-trips through explicit validation.
		explicit := PlanOptions{Workers: d.Workers}
		if err := explicit.validate(); err != nil {
			t.Fatalf("case %d: resolved knobs fail validation: %v (%+v)", i, err, d)
		}
		if d.Kind == "" || d.Reason == "" || d.CPUs <= 0 {
			t.Fatalf("case %d: incomplete provenance %+v", i, d)
		}
	}
}

// TestAutoSingleCPUSequential pins the bottom regime end to end: on a
// one-core box every Auto bind resolves sequential and Explain carries the
// decision line.
func TestAutoSingleCPUSequential(t *testing.T) {
	stubCPUs(t, 1)
	u := MustParse("Q(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).")
	p, err := NewPlan(u, example2SmallInstance(), &PlanOptions{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	d := p.Decision()
	if d == nil || d.Kind != "sequential" || d.Workers != 0 {
		t.Fatalf("decision = %+v, want sequential", d)
	}
	if ex := p.Explain(); !strings.Contains(ex, "auto decision: sequential (workers=0)") {
		t.Errorf("Explain missing decision provenance:\n%s", ex)
	}
}

// TestAutoExplicitUnaffected pins behavior preservation: an explicit bind
// records no decision and Explain stays decision-free.
func TestAutoExplicitUnaffected(t *testing.T) {
	u := MustParse("Q(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).")
	for _, opts := range []*PlanOptions{nil, {Workers: 2}} {
		p, err := NewPlan(u, example2SmallInstance(), opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if p.Decision() != nil {
			t.Errorf("opts %+v: explicit bind recorded a decision %+v", opts, p.Decision())
		}
		if strings.Contains(p.Explain(), "auto decision") {
			t.Errorf("opts %+v: Explain mentions an auto decision", opts)
		}
	}
}

// TestAutoBindCacheRoundTrip pins that a cache-served auto bind carries
// the same decision as the bind that populated the entry — the decision is
// recomputed per bind from the cached counts — and that execution options
// are not part of the bind-cache key.
func TestAutoBindCacheRoundTrip(t *testing.T) {
	stubCPUs(t, 8)
	u := MustParse("Q(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).")
	pq, err := Prepare(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewCatalog().Register("d", example2SmallInstance())
	if err != nil {
		t.Fatal(err)
	}
	first, err := pq.BindDatasetExec(ds, &PlanOptions{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.BindCacheHit() {
		t.Fatal("first auto bind was a cache hit")
	}
	second, err := pq.BindDatasetExec(ds, &PlanOptions{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if !second.BindCacheHit() {
		t.Fatal("second auto bind missed the cache")
	}
	d1, d2 := first.Decision(), second.Decision()
	if d1 == nil || d2 == nil || *d1 != *d2 {
		t.Fatalf("cached bind decision %+v differs from original %+v", d2, d1)
	}
	// An explicit-Workers bind of the same (dataset version, query) shares
	// the auto entry, and its plan does not inherit the auto decision.
	explicit, err := pq.BindDatasetExec(ds, &PlanOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !explicit.BindCacheHit() {
		t.Error("explicit bind missed the entry the auto bind filled")
	}
	if explicit.Decision() != nil {
		t.Errorf("explicit bind carries a decision %+v", explicit.Decision())
	}
}

// TestCountExact pins the COUNT fast path: certified single-branch plans
// report their exact answer count without enumerating, and it matches the
// enumerated count; multi-branch unions and naive plans decline.
func TestCountExact(t *testing.T) {
	inst := example2SmallInstance()

	// Free-connex: head {x,y,w} covers the path join, so the plan
	// certifies and enumerates from a single CDY pipeline.
	single := MustParse("Q(x,y,w) <- R1(x,y), R2(y,w).")
	p, err := NewPlan(single, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ConstantDelay {
		t.Fatalf("mode = %v, want constant-delay", p.Mode)
	}
	n, ok := p.CountExact()
	if !ok {
		t.Fatal("certified single-branch plan declined CountExact")
	}
	if want := int64(p.Count()); n != want {
		t.Fatalf("CountExact = %d, enumerated count = %d", n, want)
	}

	multi := MustParse("Q1(x,y) <- R1(x,z), R2(z,y). Q2(x,y) <- R1(x,y), R2(y,y).")
	p2, err := NewPlan(multi, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-branch unions may decline (cross-branch duplicates); when they
	// do answer, the count must still match the deduplicated enumeration.
	if n2, ok := p2.CountExact(); ok {
		if want := int64(p2.Count()); n2 != want {
			t.Errorf("multi-branch CountExact = %d, enumerated = %d", n2, want)
		}
	}

	naive, err := NewPlan(single, inst, &PlanOptions{ForceNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := naive.CountExact(); ok {
		t.Error("naive plan claimed an exact count")
	}
}

// TestCountExactMatchesEnumerationRandom sweeps random certified queries:
// whenever CountExact answers, it must equal the enumerated count.
func TestCountExactMatchesEnumerationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	exact := 0
	for i := 0; i < 150; i++ {
		u := workload.RandomUCQ(rng)
		inst := workload.RandomForQuery(u, 8+rng.Intn(25), int64(2+rng.Intn(4)), rng.Int63())
		p, err := NewPlan(u, inst, nil)
		if err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, u)
		}
		n, ok := p.CountExact()
		if !ok {
			continue
		}
		exact++
		if want := int64(p.Count()); n != want {
			t.Fatalf("case %d: CountExact = %d, enumeration = %d on\n%s", i, n, want, u)
		}
	}
	if exact == 0 {
		t.Error("no case took the exact-count path; generator or CountExact regressed")
	}
	t.Logf("exact-count path taken in %d/150 cases", exact)
}

// TestDecideAlwaysValid is the property the plan layer relies on: for any
// inputs — including nonsense ones — the resolved worker count satisfies
// PlanOptions validation (never negative) and the provenance fields are
// populated.
func TestDecideAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for i := 0; i < 5000; i++ {
		constantDelay := rng.Intn(2) == 0
		rows := rng.Intn(1 << 20)
		answers := rng.Int63n(1<<21) - 1 // includes -1 (unknown)
		branches := rng.Intn(5)
		cpus := rng.Intn(65) - 1 // includes -1 and 0
		d := decideWorkers(constantDelay, rows, answers, branches, cpus)
		if d.Workers < 0 {
			t.Fatalf("case %d: negative worker count %+v", i, d)
		}
		if d.Kind == "" || d.Reason == "" {
			t.Fatalf("case %d: incomplete provenance %+v", i, d)
		}
		if d.Rows != rows || d.Answers != answers || d.Branches != branches || d.CPUs != cpus {
			t.Fatalf("case %d: provenance %+v does not echo rows=%d answers=%d branches=%d cpus=%d",
				i, d, rows, answers, branches, cpus)
		}
	}
}

// TestDecideDeterministic pins that the cost model is a pure function of
// its inputs — the property that lets every bind recompute it from the
// cached counts and still report the same provenance.
func TestDecideDeterministic(t *testing.T) {
	a := decideWorkers(true, 1<<16, 1<<16, 1, 8)
	b := decideWorkers(true, 1<<16, 1<<16, 1, 8)
	if *a != *b {
		t.Fatalf("same inputs, different decisions:\n%+v\n%+v", a, b)
	}
}

// TestDecideRegimes pins one decision per regime of the model.
func TestDecideRegimes(t *testing.T) {
	cases := []struct {
		name          string
		constantDelay bool
		rows          int
		answers       int64
		cpus          int
		kind          string
	}{
		{"single CPU", true, 1 << 20, 1 << 20, 1, "sequential"},
		{"tiny instance", true, 100, 50, 8, "sequential"},
		{"large output", true, 1 << 16, 1 << 16, 8, "parallel"},
		{"large input, few answers", true, 1 << 16, 100, 8, "parallel"},
		{"naive big input", false, 1 << 16, -1, 8, "sequential"},
		{"naive tiny input", false, 100, -1, 8, "sequential"},
	}
	for _, tc := range cases {
		d := decideWorkers(tc.constantDelay, tc.rows, tc.answers, 1, tc.cpus)
		if d.Kind != tc.kind {
			t.Errorf("%s: kind = %s (%s), want %s", tc.name, d.Kind, d.Reason, tc.kind)
		}
	}
}

// TestDecideScalesWithCPUs pins that the picked worker count tracks the
// machine: on a bigger box the same instance gets a bigger pool.
func TestDecideScalesWithCPUs(t *testing.T) {
	for _, cpus := range []int{2, 4, 16} {
		if d := decideWorkers(true, 1<<18, 1<<18, 1, cpus); d.Workers != cpus {
			t.Errorf("cpus=%d: workers=%d, want %d (%s)", cpus, d.Workers, cpus, d.Reason)
		}
	}
}
