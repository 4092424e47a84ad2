package workload

import (
	"math/rand"
	"testing"

	"repro/internal/classify"
	"repro/internal/cq"
)

func TestRandomUCQWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	booleans := 0
	multiCQ := 0
	for i := 0; i < 500; i++ {
		u := RandomUCQ(rng)
		if err := u.Validate(); err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, u)
		}
		if u.Arity() == 0 {
			booleans++
		}
		if len(u.CQs) > 1 {
			multiCQ++
		}
		// The rendered form must round-trip through the parser — the
		// property the server's cache-key normalization relies on.
		re, err := cq.Parse(u.String())
		if err != nil {
			t.Fatalf("case %d: reparse: %v\n%s", i, err, u)
		}
		if re.String() != u.String() {
			t.Fatalf("case %d: round trip changed the query:\n%s\n%s", i, u, re)
		}
	}
	// The generator must actually cover the interesting regions.
	if booleans == 0 {
		t.Error("no boolean unions generated")
	}
	if multiCQ == 0 {
		t.Error("no multi-CQ unions generated")
	}
}

func TestRandomCyclicUCQWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		u := RandomCyclicUCQ(rng)
		if err := u.Validate(); err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, u)
		}
		// The defining property: every draw carries a cyclic member.
		cyclic := false
		for _, q := range u.CQs {
			if classify.ClassifyCQ(q) == classify.Cyclic {
				cyclic = true
				break
			}
		}
		if !cyclic {
			t.Fatalf("case %d: no cyclic member in\n%s", i, u)
		}
		re, err := cq.Parse(u.String())
		if err != nil {
			t.Fatalf("case %d: reparse: %v\n%s", i, err, u)
		}
		if re.String() != u.String() {
			t.Fatalf("case %d: round trip changed the query:\n%s\n%s", i, u, re)
		}
	}
}

func TestRandomUCQDeterministic(t *testing.T) {
	a := RandomUCQ(rand.New(rand.NewSource(7)))
	b := RandomUCQ(rand.New(rand.NewSource(7)))
	if a.String() != b.String() {
		t.Errorf("same seed, different queries:\n%s\n%s", a, b)
	}
}

func TestRandomProvidedUCQWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 300; i++ {
		u := RandomProvidedUCQ(rng)
		if err := u.Validate(); err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, u)
		}
		if len(u.CQs) != 2 || u.Arity() != 3 {
			t.Fatalf("case %d: want two members of arity 3\n%s", i, u)
		}
		re, err := cq.Parse(u.String())
		if err != nil {
			t.Fatalf("case %d: reparse: %v\n%s", i, err, u)
		}
		if re.String() != u.String() {
			t.Fatalf("case %d: round trip changed the query:\n%s\n%s", i, u, re)
		}
	}
	a := RandomProvidedUCQ(rand.New(rand.NewSource(7)))
	b := RandomProvidedUCQ(rand.New(rand.NewSource(7)))
	if a.String() != b.String() {
		t.Errorf("same seed, different queries:\n%s\n%s", a, b)
	}
}
