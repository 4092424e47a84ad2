package classify

import (
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/paper"
)

func TestClassifyCQ(t *testing.T) {
	cases := []struct {
		src  string
		want CQClass
	}{
		{"Q(x,y,w) <- R1(x,y), R2(y,w).", FreeConnex},
		{"Q(x,y) <- R1(x,z), R2(z,y).", AcyclicNotFreeConnex},
		{"Q(x,y,z) <- R1(x,y), R2(y,z), R3(z,x).", Cyclic},
		{"Q(x) <- R(x).", FreeConnex},
		{"Q() <- R1(x,y), R2(y,z).", FreeConnex},
		{"Q(x,y,v,u) <- R1(x,z1), R2(z1,z2), R3(z2,z3), R4(z3,y), R5(y,v,u).", AcyclicNotFreeConnex},
	}
	for _, tc := range cases {
		q := cq.MustParseCQ(tc.src)
		if got := ClassifyCQ(q); got != tc.want {
			t.Errorf("%s: class = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if FreeConnex.String() == "" || AcyclicNotFreeConnex.String() == "" || Cyclic.String() == "" {
		t.Errorf("empty class strings")
	}
	if Tractable.String() != "tractable" || Intractable.String() != "intractable" || Unknown.String() != "unknown" {
		t.Errorf("verdict strings wrong")
	}
}

// TestPaperGallery is the experiment E9 backbone: for every worked example
// of the paper, the classifier must reproduce the paper's verdict whenever
// it follows from the general theorems, and report Unknown for the ad-hoc
// and open cases.
func TestPaperGallery(t *testing.T) {
	for _, ex := range paper.Gallery() {
		ex := ex
		t.Run(ex.Name, func(t *testing.T) {
			res, err := ClassifyUCQ(ex.Query())
			if err != nil {
				t.Fatalf("ClassifyUCQ: %v", err)
			}
			switch ex.Coverage {
			case paper.GeneralTheorem:
				if res.Verdict.String() != ex.Verdict {
					t.Errorf("verdict = %v (%s), paper says %s", res.Verdict, res.Reason, ex.Verdict)
				}
				if ex.Verdict == "intractable" && len(res.Hypotheses) == 0 {
					t.Errorf("intractable verdict with no hypotheses")
				}
				if ex.Verdict == "tractable" && res.Certificate == nil && !strings.Contains(res.Reason, "Theorem") {
					t.Errorf("tractable verdict with neither certificate nor theorem: %s", res.Reason)
				}
			case paper.AdHoc, paper.Open:
				if res.Verdict != Unknown {
					t.Errorf("verdict = %v (%s), want unknown (paper coverage: %v)",
						res.Verdict, res.Reason, ex.Coverage)
				}
			}
		})
	}
}

func TestExample1RedundancyReduction(t *testing.T) {
	ex, _ := paper.ByName("example1")
	res, err := ClassifyUCQ(ex.Query())
	if err != nil {
		t.Fatalf("ClassifyUCQ: %v", err)
	}
	if res.Reduced == nil || len(res.Reduced.CQs) != 1 {
		t.Errorf("redundant CQ not removed: %v", res.Reduced)
	}
	if res.Verdict != Tractable {
		t.Errorf("verdict = %v", res.Verdict)
	}
}

func TestTheorem29GuardsOnExamples(t *testing.T) {
	// Example 21: both guarded.
	u21 := cq.MustParse(`
		Q1(w,y,x,z) <- R1(w,v), R2(v,y), R3(y,z), R4(z,x).
		Q2(x,y,w,v) <- R1(w,v), R2(v,y), R3(y,z), R4(z,x).
	`)
	r21, ok := RewriteBodyIsomorphic(u21)
	if !ok {
		t.Fatalf("Example 21 queries not body-isomorphic")
	}
	for i := 0; i < 2; i++ {
		j := 1 - i
		if !FreePathGuarded(r21, i, j) {
			t.Errorf("Example 21: Q%d not free-path guarded", i+1)
		}
		if !BypassGuarded(r21, i, j) {
			t.Errorf("Example 21: Q%d not bypass guarded", i+1)
		}
	}

	// Example 20: Q1 not free-path guarded.
	u20 := cq.MustParse(`
		Q1(x,y,v) <- R1(x,z), R2(z,y), R3(y,v), R4(v,w).
		Q2(x,y,v) <- R1(w,v), R2(v,y), R3(y,z), R4(z,x).
	`)
	r20, ok := RewriteBodyIsomorphic(u20)
	if !ok {
		t.Fatalf("Example 20 queries not body-isomorphic")
	}
	if FreePathGuarded(r20, 0, 1) && FreePathGuarded(r20, 1, 0) {
		t.Errorf("Example 20: both directions guarded; expected a violation")
	}

	// Example 22: guarded but not bypass guarded.
	u22 := cq.MustParse(`
		Q1(x,y,t) <- R1(x,w,t), R2(y,w,t).
		Q2(x,y,w) <- R1(x,w,t), R2(y,w,t).
	`)
	r22, ok := RewriteBodyIsomorphic(u22)
	if !ok {
		t.Fatalf("Example 22 queries not body-isomorphic")
	}
	if !FreePathGuarded(r22, 0, 1) || !FreePathGuarded(r22, 1, 0) {
		t.Errorf("Example 22: free-path guard should hold in both directions")
	}
	if BypassGuarded(r22, 0, 1) {
		t.Errorf("Example 22: Q1 should not be bypass guarded (t bypasses w)")
	}
}

func TestUnionGuardExample31(t *testing.T) {
	u := cq.MustParse(`
		Q1(x1,x2,x3) <- R1(x1,z), R2(x2,z), R3(x3,z).
		Q2(x1,x2,z) <- R1(x1,z), R2(x2,z), R3(x3,z).
		Q3(x1,x3,z) <- R1(x1,z), R2(x2,z), R3(x3,z).
		Q4(x2,x3,z) <- R1(x1,z), R2(x2,z), R3(x3,z).
	`)
	r, ok := RewriteBodyIsomorphic(u)
	if !ok {
		t.Fatalf("Example 31 queries not body-isomorphic")
	}
	paths := r.FreePathsOf(0)
	if len(paths) != 3 {
		t.Fatalf("Q1 free-paths = %v, want 3", paths)
	}
	for _, p := range paths {
		if !UnionGuarded(r, p) {
			t.Errorf("path %v should be union guarded", p)
		}
		if Isolated(r, 0, p) {
			t.Errorf("path %v should not be isolated (paths share z)", p)
		}
	}
}

func TestUnionGuardViolation(t *testing.T) {
	// Three body-isomorphic CQs where no head covers the triple {x,z,y}:
	// the free-path (x,z,y) of Q1 has no union guard.
	u := cq.MustParse(`
		Q1(x,y,u) <- R1(x,z), R2(z,y), R3(y,u).
		Q2(x,z,u) <- R1(x,z), R2(z,y), R3(y,u).
		Q3(y,z,u) <- R1(x,z), R2(z,y), R3(y,u).
	`)
	r, ok := RewriteBodyIsomorphic(u)
	if !ok {
		t.Fatalf("queries not body-isomorphic")
	}
	found := false
	for _, p := range r.FreePathsOf(0) {
		if p.String() == "(x,z,y)" && !UnionGuarded(r, p) {
			found = true
		}
	}
	if !found {
		t.Errorf("expected (x,z,y) to be unguarded")
	}
	res, err := ClassifyUCQ(u)
	if err != nil {
		t.Fatalf("ClassifyUCQ: %v", err)
	}
	if res.Verdict != Intractable || !strings.Contains(res.Reason, "Theorem 33") {
		t.Errorf("verdict = %v (%s), want Theorem 33 intractable", res.Verdict, res.Reason)
	}
}

func TestTheorem35TractableUnion(t *testing.T) {
	// Body-isomorphic union where the single free-path (x,z,y) is union
	// guarded (Q2's head covers it) and isolated.
	u := cq.MustParse(`
		Q1(x,y,u) <- R1(x,z), R2(z,y), R3(u).
		Q2(x,z,y) <- R1(x,z), R2(z,y), R3(u).
	`)
	res, err := ClassifyUCQ(u)
	if err != nil {
		t.Fatalf("ClassifyUCQ: %v", err)
	}
	if res.Verdict != Tractable {
		t.Errorf("verdict = %v (%s), want tractable", res.Verdict, res.Reason)
	}
}

func TestLemma14DisjointRelations(t *testing.T) {
	// Q2 uses a relation vocabulary disjoint from the intractable Q1.
	u := cq.MustParse(`
		Q1(x,y) <- R1(x,z), R2(z,y).
		Q2(x,y) <- S1(x,y).
	`)
	res, err := ClassifyUCQ(u)
	if err != nil {
		t.Fatalf("ClassifyUCQ: %v", err)
	}
	if res.Verdict != Intractable || !strings.Contains(res.Reason, "Lemma 14") {
		t.Errorf("verdict = %v (%s), want Lemma 14 intractable", res.Verdict, res.Reason)
	}
	if len(res.Hypotheses) != 1 || res.Hypotheses[0] != "mat-mul" {
		t.Errorf("hypotheses = %v", res.Hypotheses)
	}
}

func TestLemma15CyclicWithIsomorphicCompanion(t *testing.T) {
	u := cq.MustParse(`
		Q1(x,y) <- R1(x,y), R2(y,z), R3(z,x).
		Q2(y,z) <- R1(x,y), R2(y,z), R3(z,x).
	`)
	res, err := ClassifyUCQ(u)
	if err != nil {
		t.Fatalf("ClassifyUCQ: %v", err)
	}
	if res.Verdict != Intractable {
		t.Errorf("verdict = %v (%s), want intractable", res.Verdict, res.Reason)
	}
	if len(res.Hypotheses) == 0 || res.Hypotheses[0] != "hyperclique" {
		t.Errorf("hypotheses = %v, want hyperclique", res.Hypotheses)
	}
}

func TestSelfJoinUnionIsUnknown(t *testing.T) {
	u := cq.MustParse(`
		Q1(x,y) <- R(x,z), R(z,y).
	`)
	res, err := ClassifyUCQ(u)
	if err != nil {
		t.Fatalf("ClassifyUCQ: %v", err)
	}
	if res.Verdict != Unknown || !strings.Contains(res.Reason, "self-join") {
		t.Errorf("verdict = %v (%s), want unknown due to self-joins", res.Verdict, res.Reason)
	}
}

func TestSingleCQDichotomy(t *testing.T) {
	cases := []struct {
		src     string
		verdict Verdict
	}{
		{"Q(x,y,w) <- R1(x,y), R2(y,w).", Tractable},
		{"Q(x,y) <- R1(x,z), R2(z,y).", Intractable},
		{"Q(x,y,z) <- R1(x,y), R2(y,z), R3(z,x).", Intractable},
	}
	for _, tc := range cases {
		res, err := ClassifyUCQ(cq.MustParse(tc.src))
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if res.Verdict != tc.verdict {
			t.Errorf("%s: verdict = %v (%s), want %v", tc.src, res.Verdict, res.Reason, tc.verdict)
		}
	}
}

func TestInvalidUnionRejected(t *testing.T) {
	bad := &cq.UCQ{}
	if _, err := ClassifyUCQ(bad); err == nil {
		t.Errorf("empty union accepted")
	}
}
