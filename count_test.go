package ucq

import (
	"math/rand"
	"testing"

	"repro/internal/workload"
)

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

// TestCountExactMatchesEnumerationRandom sweeps random certified queries,
// plus a two-atom path join over a layered chain instance: whenever
// CountExact answers, it must equal the enumerated count.
func TestCountExactMatchesEnumerationRandom(t *testing.T) {
	chain := MustParse("Q(x,y,w) <- R1(x,y), R2(y,w).")
	p, err := NewPlan(chain, workload.Chain([]string{"R1", "R2"}, []int{2, 2}, 100, 3, 11), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := p.CountExact(); !ok || n != int64(p.Count()) {
		t.Fatalf("chain: CountExact = %d, %v; enumeration = %d", n, ok, p.Count())
	}

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
