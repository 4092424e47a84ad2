package yannakakis

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/workload"
)

// drainCount exhausts a fresh iterator of the plan and returns the count.
func drainCount(p *Plan) int64 {
	n := int64(0)
	it := p.Iterator()
	for it.Next() {
		n++
	}
	return n
}

// TestCountAnswersMatchesEnumeration checks the counting pass against the
// iterator on a spread of query shapes and instances.
func TestCountAnswersMatchesEnumeration(t *testing.T) {
	cases := []struct {
		name  string
		query string
		build func() *database.Instance
	}{
		{
			name:  "full-chain",
			query: "Q(x,y,w) <- R1(x,y), R2(y,w).",
			build: func() *database.Instance {
				return workload.Chain([]string{"R1", "R2"}, []int{2, 2}, 200, 3, 1)
			},
		},
		{
			name:  "projected-chain",
			query: "Q(x) <- R1(x,y), R2(y,w).",
			build: func() *database.Instance {
				return workload.Chain([]string{"R1", "R2"}, []int{2, 2}, 150, 2, 2)
			},
		},
		{
			name:  "star",
			query: "Q(c,x,y,z) <- R1(c,x), R2(c,y), R3(c,z).",
			build: func() *database.Instance {
				return workload.Random(
					[]cq.RelDecl{{Name: "R1", Arity: 2}, {Name: "R2", Arity: 2}, {Name: "R3", Arity: 2}},
					300, 40, 3)
			},
		},
		{
			name:  "disconnected-free",
			query: "Q(x,y) <- R1(x,a), R2(y,b).",
			build: func() *database.Instance {
				return workload.Random(
					[]cq.RelDecl{{Name: "R1", Arity: 2}, {Name: "R2", Arity: 2}},
					80, 25, 4)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := cq.MustParseCQ(tc.query)
			inst := tc.build()
			plan, err := prepare(q, inst, nil)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			want := drainCount(plan)
			if got := plan.CountAnswers(); got != want {
				t.Fatalf("CountAnswers = %d, enumeration yields %d", got, want)
			}
			// Counting must not disturb the plan: a fresh iterator still
			// produces the same answers.
			if again := drainCount(plan); again != want {
				t.Fatalf("enumeration after CountAnswers yields %d, want %d", again, want)
			}
		})
	}
}

// TestCountAnswersEmptyAndBoolean covers empty results and S = ∅ plans.
func TestCountAnswersEmptyAndBoolean(t *testing.T) {
	q := cq.MustParseCQ("Q(x,y,w) <- R1(x,y), R2(y,w).")
	inst := workload.Chain([]string{"R1", "R2"}, []int{2, 2}, 10, 1, 5)
	// Remove all R2 rows joining R1: use a disjoint instance instead.
	empty := workload.Chain([]string{"R1", "R2"}, []int{2, 2}, 0, 0, 5)
	plan, err := prepare(q, empty, nil)
	if err != nil {
		t.Fatalf("prepare empty: %v", err)
	}
	if got := plan.CountAnswers(); got != 0 {
		t.Fatalf("empty instance: CountAnswers = %d, want 0", got)
	}
	// Boolean-style plan: S = ∅ counts 1 when an answer exists.
	bplan, err := prepare(q, inst, cq.NewVarSet())
	if err != nil {
		t.Fatalf("prepare S=∅: %v", err)
	}
	want := drainCount(bplan)
	if got := bplan.CountAnswers(); got != want {
		t.Fatalf("S=∅: CountAnswers = %d, enumeration yields %d", got, want)
	}
}
