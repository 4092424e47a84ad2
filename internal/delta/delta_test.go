package delta

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/database"
)

// joinInstance builds an R ⋈ S instance: R rows (i, i%fan), S rows
// (j, j+1000) for j < fan, so every R row joins exactly one S row.
func joinInstance(rRows, fan int64) *database.Instance {
	inst := database.NewInstance()
	r := database.NewRelation("R", 2)
	for i := int64(0); i < rRows; i++ {
		r.AppendInts(i, i%fan)
	}
	s := database.NewRelation("S", 2)
	for j := int64(0); j < fan; j++ {
		s.AppendInts(j, j+1000)
	}
	inst.AddRelation(r)
	inst.AddRelation(s)
	return inst
}

// evalSet materializes the baseline answer set as string keys.
func evalSet(t *testing.T, u *cq.UCQ, inst *database.Instance) map[string]bool {
	t.Helper()
	rel, err := baseline.EvalUCQCtx(context.Background(), u, inst)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		out[fmt.Sprint(rel.Row(i))] = true
	}
	return out
}

func TestTouched(t *testing.T) {
	u := cq.MustParse(`Q(x,y,z) <- R(x,y), S(y,z).`)
	empty := database.NewRelation("S", 2)
	dr := database.NewRelation("R", 2)
	dr.AppendInts(1, 2)
	unref := database.NewRelation("T", 2)
	unref.AppendInts(3, 4)
	got := Touched(u, map[string]*database.Relation{
		"R": dr,    // referenced, non-empty: kept
		"S": empty, // referenced but empty: dropped
		"T": unref, // never referenced by the query: dropped
		"U": nil,
	})
	if len(got) != 1 || got[0] != "R" {
		t.Fatalf("Touched = %v, want [R]", got)
	}
}

func TestHasSelfJoinOn(t *testing.T) {
	selfJoin := cq.MustParse(`Q(x,y,z) <- R(x,y), R(y,z).`)
	plain := cq.MustParse(`Q(x,y,z) <- R(x,y), S(y,z).`)
	if !HasSelfJoinOn(selfJoin, []string{"R"}) {
		t.Error("self-join on touched R not detected")
	}
	if HasSelfJoinOn(selfJoin, []string{"S"}) {
		t.Error("self-join reported for an untouched relation")
	}
	if HasSelfJoinOn(plain, []string{"R", "S"}) {
		t.Error("two distinct atoms misreported as a self-join")
	}
}

// TestCandidatesExactAfterFilter pins the core contract: the candidates,
// filtered through old-plan membership, are exactly Q(to) \ Q(from), and
// the incremental (non-full) path ran.
func TestCandidatesExactAfterFilter(t *testing.T) {
	u := cq.MustParse(`Q(x,y,z) <- R(x,y), S(y,z).`)
	cert, ok := core.FindCertificate(u, nil)
	if !ok {
		t.Fatal("full-head join must certify")
	}
	fromInst := joinInstance(50, 10)
	toInst := fromInst.ShallowClone()
	dr := database.NewRelation("R", 2)
	dr.AppendInts(100, 3)
	dr.AppendInts(101, 7)
	merged := toInst.Relation("R").Clone()
	merged.AppendInts(100, 3)
	merged.AppendInts(101, 7)
	toInst.AddRelation(merged)

	c, err := core.Compile(u, cert)
	if err != nil {
		t.Fatal(err)
	}
	old, err := c.Bind(context.Background(), fromInst)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	full, err := Candidates(context.Background(), c, toInst, map[string]*database.Relation{"R": dr}, func(tup database.Tuple) bool {
		k := fmt.Sprint(tup)
		if got[k] {
			t.Fatalf("candidate %s yielded twice", k)
		}
		got[k] = true
		if old.ContainsAnswer(tup) {
			delete(got, k) // the caller-side old-membership filter
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if full {
		t.Error("expected the incremental overlay path, got the full-eval fallback")
	}

	oldSet, newSet := evalSet(t, u, fromInst), evalSet(t, u, toInst)
	want := make(map[string]bool)
	for k := range newSet {
		if !oldSet[k] {
			want[k] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("bad fixture: the append added no answers")
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing new answer %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("extra answer %s survived the filter", k)
		}
	}
}

// TestCandidatesSelfJoinFallsBack: a CQ self-joining the touched relation
// must degrade to one full evaluation — and stay exact after the filter.
func TestCandidatesSelfJoinFallsBack(t *testing.T) {
	u := cq.MustParse(`Q(x,y,z) <- R(x,y), R(y,z).`)
	cert, ok := core.FindCertificate(u, nil)
	if !ok {
		t.Fatal("full-head self-join must certify")
	}
	fromInst := database.NewInstance()
	r := database.NewRelation("R", 2)
	r.AppendInts(1, 2)
	r.AppendInts(2, 3)
	fromInst.AddRelation(r)

	// Append (3,4): the new answer (2,3,4) pairs an OLD tuple with the new
	// one — exactly the combination a per-relation overlay would miss.
	toInst := fromInst.ShallowClone()
	merged := r.Clone()
	merged.AppendInts(3, 4)
	toInst.AddRelation(merged)
	dr := database.NewRelation("R", 2)
	dr.AppendInts(3, 4)

	c, err := core.Compile(u, cert)
	if err != nil {
		t.Fatal(err)
	}
	old, err := c.Bind(context.Background(), fromInst)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	full, err := Candidates(context.Background(), c, toInst, map[string]*database.Relation{"R": dr}, func(tup database.Tuple) bool {
		if !old.ContainsAnswer(tup) {
			got[fmt.Sprint(tup)] = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !full {
		t.Error("self-join on the touched relation must take the full-eval fallback")
	}
	if !got[fmt.Sprint(database.Tuple{database.V(2), database.V(3), database.V(4)})] {
		t.Errorf("old⋈new answer missing: got %v", got)
	}
}
