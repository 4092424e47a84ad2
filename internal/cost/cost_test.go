package cost

import (
	"math/rand"
	"testing"
)

// TestDecideAlwaysValid is the property the plan layer relies on: for any
// inputs — including nonsense ones — the resolved worker count satisfies
// PlanOptions validation (never negative) and the provenance fields are
// populated.
func TestDecideAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for i := 0; i < 5000; i++ {
		in := Inputs{
			ConstantDelay: rng.Intn(2) == 0,
			Rows:          rng.Intn(1 << 20),
			Answers:       rng.Int63n(1<<21) - 1, // includes -1 (unknown)
			Branches:      rng.Intn(5),
			CPUs:          rng.Intn(65) - 1, // includes -1 and 0
		}
		d := Decide(in)
		if d.Workers < 0 {
			t.Fatalf("case %d: negative worker count %+v", i, d)
		}
		if d.Reason == "" {
			t.Fatalf("case %d: empty reason for %+v", i, in)
		}
		if d.Inputs != in {
			t.Fatalf("case %d: provenance inputs %+v do not echo %+v", i, d.Inputs, in)
		}
	}
}

// TestDecideDeterministic pins that Decide is a pure function of its
// inputs — the property that lets every bind recompute it from the cached
// counts and still report the same provenance.
func TestDecideDeterministic(t *testing.T) {
	in := Inputs{ConstantDelay: true, Rows: 1 << 16, Answers: 1 << 16,
		Branches: 1, CPUs: 8}
	a, b := Decide(in), Decide(in)
	if a != b {
		t.Fatalf("same inputs, different decisions:\n%+v\n%+v", a, b)
	}
}

// TestDecideRegimes pins one decision per regime of the model.
func TestDecideRegimes(t *testing.T) {
	cases := []struct {
		name string
		in   Inputs
		kind string
	}{
		{"single CPU", Inputs{ConstantDelay: true, Rows: 1 << 20, Answers: 1 << 20, CPUs: 1}, "sequential"},
		{"tiny instance", Inputs{ConstantDelay: true, Rows: 100, Answers: 50, CPUs: 8}, "sequential"},
		{"large output", Inputs{ConstantDelay: true, Rows: 1 << 16, Answers: 1 << 16, CPUs: 8}, "parallel"},
		{"large input, few answers", Inputs{ConstantDelay: true, Rows: 1 << 16, Answers: 100, CPUs: 8}, "parallel"},
		{"naive big input", Inputs{ConstantDelay: false, Rows: 1 << 16, Answers: -1, CPUs: 8}, "sequential"},
		{"naive tiny input", Inputs{ConstantDelay: false, Rows: 100, Answers: -1, CPUs: 8}, "sequential"},
	}
	for _, tc := range cases {
		d := Decide(tc.in)
		if d.Kind() != tc.kind {
			t.Errorf("%s: kind = %s (%s), want %s", tc.name, d.Kind(), d.Reason, tc.kind)
		}
	}
}

// TestDecideScalesWithCPUs pins that the picked worker count tracks the
// machine: on a bigger box the same instance gets a bigger pool.
func TestDecideScalesWithCPUs(t *testing.T) {
	in := Inputs{ConstantDelay: true, Rows: 1 << 18, Answers: 1 << 18, Branches: 1}
	for _, cpus := range []int{2, 4, 16} {
		in.CPUs = cpus
		if d := Decide(in); d.Workers != cpus {
			t.Errorf("cpus=%d: workers=%d, want %d (%s)", cpus, d.Workers, cpus, d.Reason)
		}
	}
}
