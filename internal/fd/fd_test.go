package fd

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/classify"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/enumeration"
)

// matMulQuery is the canonical intractable CQ: Q(x,y) <- R1(x,z), R2(z,y).
const matMulQuery = "Q(x,y) <- R1(x,z), R2(z,y)."

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(FD{Rel: "", From: []int{0}, To: 1}); err == nil {
		t.Errorf("empty relation accepted")
	}
	if _, err := NewSet(FD{Rel: "R", From: nil, To: 1}); err == nil {
		t.Errorf("empty determinant accepted")
	}
	if _, err := NewSet(FD{Rel: "R", From: []int{-1}, To: 1}); err == nil {
		t.Errorf("negative position accepted")
	}
	if _, err := NewSet(FD{Rel: "R", From: []int{0}, To: -1}); err == nil {
		t.Errorf("negative target accepted")
	}
	s := MustSet(FD{Rel: "R", From: []int{0}, To: 1})
	if len(s.All()) != 1 {
		t.Errorf("All = %v", s.All())
	}
	if got := (FD{Rel: "R", From: []int{0, 1}, To: 2}).String(); got != "R: 0,1 -> 2" {
		t.Errorf("String = %q", got)
	}
}

func TestValidateAgainstSchema(t *testing.T) {
	u := cq.MustParse(matMulQuery)
	ok := MustSet(FD{Rel: "R1", From: []int{0}, To: 1})
	if err := ok.Validate(u); err != nil {
		t.Errorf("valid FD rejected: %v", err)
	}
	bad := MustSet(FD{Rel: "R1", From: []int{0}, To: 5})
	if err := bad.Validate(u); err == nil {
		t.Errorf("out-of-range FD accepted")
	}
	unused := MustSet(FD{Rel: "ZZZ", From: []int{0}, To: 9})
	if err := unused.Validate(u); err != nil {
		t.Errorf("FD on unused relation rejected: %v", err)
	}
}

func TestHolds(t *testing.T) {
	s := MustSet(FD{Rel: "R", From: []int{0}, To: 1})
	good := database.NewInstance()
	r := database.NewRelation("R", 2)
	r.AppendInts(1, 10)
	r.AppendInts(2, 20)
	r.AppendInts(1, 10) // duplicate row is fine
	good.AddRelation(r)
	if err := s.Holds(good); err != nil {
		t.Errorf("satisfying instance rejected: %v", err)
	}
	bad := database.NewInstance()
	r2 := database.NewRelation("R", 2)
	r2.AppendInts(1, 10)
	r2.AppendInts(1, 11)
	bad.AddRelation(r2)
	if err := s.Holds(bad); err == nil {
		t.Errorf("violating instance accepted")
	}
}

// TestHoldsValidatesEmptyRelation: a determinant position past the arity
// is an error even when the relation has no rows to read it from.
func TestHoldsValidatesEmptyRelation(t *testing.T) {
	s := MustSet(FD{Rel: "R", From: []int{5}, To: 1})
	inst := database.NewInstance()
	inst.AddRelation(database.NewRelation("R", 2))
	if err := s.Holds(inst); err == nil {
		t.Error("out-of-range determinant on an empty relation accepted")
	}
}

func TestFreeClosureAndExtend(t *testing.T) {
	q := cq.MustParseCQ(matMulQuery)
	// FD R1: x → z puts z into the closure.
	s := MustSet(FD{Rel: "R1", From: []int{0}, To: 1})
	closure := s.FreeClosure(q)
	if !closure.Equal(cq.NewVarSet("x", "y", "z")) {
		t.Errorf("closure = %v", closure)
	}
	ext := s.ExtendCQ(q)
	if len(ext.Head) != 3 || ext.Head[2] != "z" {
		t.Errorf("extended head = %v", ext.Head)
	}
	// Transitive closure through two FDs.
	q2 := cq.MustParseCQ("Q(x) <- R1(x,z), R2(z,y).")
	s2 := MustSet(
		FD{Rel: "R1", From: []int{0}, To: 1},
		FD{Rel: "R2", From: []int{0}, To: 1},
	)
	if got := s2.FreeClosure(q2); !got.Equal(cq.NewVarSet("x", "y", "z")) {
		t.Errorf("transitive closure = %v", got)
	}
}

func TestRemark2TractabilityFlip(t *testing.T) {
	// The matrix-multiplication query is intractable in general but
	// FD-free-connex when R1's first column determines its second.
	q := cq.MustParseCQ(matMulQuery)
	if classify.ClassifyCQ(q) != classify.AcyclicNotFreeConnex {
		t.Fatalf("expected the query to be non-free-connex without FDs")
	}
	s := MustSet(FD{Rel: "R1", From: []int{0}, To: 1})
	if !s.IsFDFreeConnex(q) {
		t.Errorf("FD-extension should be free-connex")
	}
	// An FD in the wrong direction (z → y: the determinant is not in the
	// closure) does not help.
	s2 := MustSet(FD{Rel: "R2", From: []int{0}, To: 1})
	if s2.IsFDFreeConnex(q) {
		t.Errorf("irrelevant FD should not make the query free-connex")
	}
}

// fdInstance builds a random instance in which R1 satisfies x → z (each x
// has one z) and R2 is arbitrary.
func fdInstance(rng *rand.Rand, n int) *database.Instance {
	inst := database.NewInstance()
	r1 := database.NewRelation("R1", 2)
	zOf := make(map[int64]int64)
	for i := 0; i < n; i++ {
		x := rng.Int63n(int64(n))
		z, ok := zOf[x]
		if !ok {
			z = rng.Int63n(8)
			zOf[x] = z
		}
		r1.AppendInts(x, z)
	}
	r1.Dedup()
	r2 := database.NewRelation("R2", 2)
	for i := 0; i < n; i++ {
		r2.AppendInts(rng.Int63n(8), rng.Int63n(int64(n)))
	}
	r2.Dedup()
	inst.AddRelation(r1)
	inst.AddRelation(r2)
	return inst
}

func TestEnumerateCQMatchesBaseline(t *testing.T) {
	q := cq.MustParseCQ(matMulQuery)
	s := MustSet(FD{Rel: "R1", From: []int{0}, To: 1})
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		inst := fdInstance(rng, 30)
		it, err := s.EnumerateCQ(q, inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := enumeration.Collect(it)
		seen := make(map[string]bool)
		for _, g := range got {
			if seen[g.Key()] {
				t.Fatalf("trial %d: duplicate %v", trial, g)
			}
			seen[g.Key()] = true
		}
		want, err := baseline.EvalCQ(q, inst)
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		if len(got) != want.Len() {
			t.Fatalf("trial %d: %d answers, want %d", trial, len(got), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if !seen[want.Row(i).Key()] {
				t.Fatalf("trial %d: missing %v", trial, want.Row(i))
			}
		}
	}
}

func TestEnumerateCQRejectsViolations(t *testing.T) {
	q := cq.MustParseCQ(matMulQuery)
	s := MustSet(FD{Rel: "R1", From: []int{0}, To: 1})
	bad := database.NewInstance()
	r1 := database.NewRelation("R1", 2)
	r1.AppendInts(1, 10)
	r1.AppendInts(1, 11)
	bad.AddRelation(r1)
	r2 := database.NewRelation("R2", 2)
	bad.AddRelation(r2)
	if _, err := s.EnumerateCQ(q, bad); err == nil || !strings.Contains(err.Error(), "violated") {
		t.Errorf("violating instance accepted: %v", err)
	}
}

func TestEnumerateCQRejectsNonConnexExtension(t *testing.T) {
	q := cq.MustParseCQ(matMulQuery)
	s := MustSet(FD{Rel: "R2", From: []int{0}, To: 1}) // z → y: does not help
	inst := database.NewInstance()
	r1 := database.NewRelation("R1", 2)
	r1.AppendInts(1, 2)
	inst.AddRelation(r1)
	r2 := database.NewRelation("R2", 2)
	r2.AppendInts(2, 3)
	inst.AddRelation(r2)
	if _, err := s.EnumerateCQ(q, inst); err == nil {
		t.Errorf("non-free-connex FD-extension accepted")
	}
}

func TestFDOnHigherArityAtoms(t *testing.T) {
	// R(a,b,c) with ab → c: Q(a,b) <- R(a,b,c), S(c) has closure {a,b,c}.
	q := cq.MustParseCQ("Q(a,b) <- R(a,b,c), S(c).")
	s := MustSet(FD{Rel: "R", From: []int{0, 1}, To: 2})
	if got := s.FreeClosure(q); !got.Equal(cq.NewVarSet("a", "b", "c")) {
		t.Errorf("closure = %v", got)
	}
	if !s.IsFDFreeConnex(q) {
		t.Errorf("extension should be free-connex")
	}
}
