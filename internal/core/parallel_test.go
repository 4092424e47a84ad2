package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/workload"
)

// sortedTuples drains an iterator and sorts the answers for set comparison.
func sortedTuples(it interface {
	Next() (database.Tuple, bool)
}) []database.Tuple {
	var out []database.Tuple
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// TestIteratorParallelMatchesSequential runs the Theorem 12 pipeline's
// parallel iterator against the sequential one on the paper's union
// examples over random instances: identical answer sets, no duplicates.
func TestIteratorParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, src := range []string{example2, example13} {
		u := cq.MustParse(src)
		cert, ok := FindCertificate(u, nil)
		if !ok {
			t.Fatalf("no certificate for\n%s", u)
		}
		for trial := 0; trial < 4; trial++ {
			inst := randomInstance(u, rng, 60, 8)
			plan, err := NewUnionPlan(u, cert, inst)
			if err != nil {
				t.Fatalf("NewUnionPlan: %v", err)
			}
			want := sortedTuples(plan.Iterator())
			for _, batch := range []int{0, 1, 7} {
				got := sortedTuples(plan.Answers(context.Background(),
					enumeration.UnionOptions{Workers: 2, BatchSize: batch}, nil))
				if len(got) != len(want) {
					t.Fatalf("trial %d batch %d: %d answers, want %d", trial, batch, len(got), len(want))
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("trial %d batch %d: answer %d = %v, want %v", trial, batch, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestIteratorParallelCloseEarly abandons a parallel union mid-stream; the
// workers must be releasable without draining.
func TestIteratorParallelCloseEarly(t *testing.T) {
	u := cq.MustParse(example2)
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatal("no certificate")
	}
	inst := randomInstance(u, rand.New(rand.NewSource(9)), 200, 6)
	plan, err := NewUnionPlan(u, cert, inst)
	if err != nil {
		t.Fatal(err)
	}
	it := plan.Answers(context.Background(), enumeration.UnionOptions{Workers: 2, BatchSize: 4}, nil)
	if _, ok := it.Next(); !ok {
		t.Skip("instance produced no answers")
	}
	it.Close()
	if _, ok := it.Next(); ok {
		t.Error("answer after Close")
	}
}

// TestIteratorParallelDisjointSingleBranch: a single free-connex CQ's
// root-range tasks partition its answers at any worker count — inline
// included — on an instance whose output concentrates on one join key.
func TestIteratorParallelDisjointSingleBranch(t *testing.T) {
	u := cq.MustParse("Q(x,y,w) <- R1(x,y), R2(y,w).")
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatal("no certificate")
	}
	inst := workload.SkewedJoin(800, 12, 23, 30, 4, 7)
	plan, err := NewUnionPlan(u, cert, inst)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedTuples(plan.Iterator())
	if len(want) != 800*12+23*30*4 {
		t.Fatalf("unexpected sequential answer count %d", len(want))
	}
	for _, workers := range []int{0, 1, 2, 8} {
		it := plan.Answers(context.Background(), enumeration.UnionOptions{Workers: workers}, nil)
		got := sortedTuples(it)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d answers, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("workers=%d: answer %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSizeHintMatchesCardinality: the lazily cached estimate equals the
// exact enumerated count for a duplicate-free union.
func TestSizeHintMatchesCardinality(t *testing.T) {
	u := cq.MustParse("Q(x,y,w) <- R1(x,y), R2(y,w).")
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatal("no certificate")
	}
	inst := workload.Chain([]string{"R1", "R2"}, []int{2, 2}, 100, 3, 11)
	plan, err := NewUnionPlan(u, cert, inst)
	if err != nil {
		t.Fatal(err)
	}
	want := len(sortedTuples(plan.Iterator()))
	if got := plan.AnswerEstimate(); got != int64(want) {
		t.Fatalf("AnswerEstimate = %d, enumeration yields %d", got, want)
	}
}
