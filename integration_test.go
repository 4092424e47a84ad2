package ucq

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/paper"
	"repro/internal/workload"
)

// TestGalleryEndToEnd evaluates every tractable worked example of the
// paper through the public API on random instances and compares against
// the naive evaluator; intractable and unknown examples must still
// evaluate correctly through the naive fallback.
func TestGalleryEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for _, ex := range paper.Gallery() {
		ex := ex
		t.Run(ex.Name, func(t *testing.T) {
			u := ex.Query()
			for trial := 0; trial < 3; trial++ {
				inst := workload.RandomForQuery(u, 20, 4, rng.Int63())
				plan, err := NewPlan(u, inst, nil)
				if err != nil {
					t.Fatalf("NewPlan: %v", err)
				}
				if ex.Verdict == "tractable" && ex.Coverage == paper.GeneralTheorem && plan.Mode != ConstantDelay {
					t.Errorf("tractable example evaluated in %v mode", plan.Mode)
				}
				want, err := baseline.EvalUCQ(u, inst)
				if err != nil {
					t.Fatalf("baseline: %v", err)
				}
				got := plan.Materialize()
				if got.Len() != want.Len() {
					t.Fatalf("trial %d (%v): %d answers, want %d", trial, plan.Mode, got.Len(), want.Len())
				}
				gotRows := got.SortedRows()
				wantRows := want.SortedRows()
				for i := range wantRows {
					if !gotRows[i].Equal(wantRows[i]) {
						t.Fatalf("trial %d: answer %d = %v, want %v", trial, i, gotRows[i], wantRows[i])
					}
				}
			}
		})
	}
}

// TestGalleryEndToEndParallel drains every gallery example's bound plan
// from several goroutines at once: a bound plan is read-only, so streams
// running in parallel over one plan — what concurrent requests served
// from the catalog's bind cache do — each produce the plan's full answer
// set, in the same deterministic order. Run under -race, it also checks
// that no stream writes to shared plan state.
func TestGalleryEndToEndParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for _, ex := range paper.Gallery() {
		t.Run(ex.Name, func(t *testing.T) {
			u := ex.Query()
			plan, err := NewPlan(u, workload.RandomForQuery(u, 20, 4, rng.Int63()), nil)
			if err != nil {
				t.Fatalf("NewPlan: %v", err)
			}
			drain := func() string {
				var rows []string
				for tup := range plan.All(nil) {
					rows = append(rows, tup.String())
				}
				return strings.Join(rows, "\n")
			}
			want := drain()
			const streams = 4
			got := make([]string, streams)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = drain()
				}()
			}
			wg.Wait()
			for i, g := range got {
				if g != want {
					t.Fatalf("(%v mode) stream %d disagrees with a lone drain:\n%s\nwant:\n%s", plan.Mode, i, g, want)
				}
			}
		})
	}
}

// TestRedundantUnionStillEvaluates exercises Example 1 end to end: the
// union with a redundant CQ must produce the same answers as its
// reduction.
func TestRedundantUnionStillEvaluates(t *testing.T) {
	ex, _ := paper.ByName("example1")
	u := ex.Query()
	inst := workload.RandomForQuery(u, 25, 5, 9)
	full, err := NewPlan(u, inst, nil)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	res, err := Classify(u)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if res.Reduced == nil {
		t.Fatalf("redundancy not detected")
	}
	reduced, err := NewPlan(res.Reduced, inst, nil)
	if err != nil {
		t.Fatalf("NewPlan(reduced): %v", err)
	}
	if full.Count() != reduced.Count() {
		t.Errorf("full union %d answers, reduced %d", full.Count(), reduced.Count())
	}
}

// TestDelayMeasurementSmoke asserts the DelayClin signature at test scale:
// growing the input 8× must not grow the mean delay more than ~4× (noise
// allowance), while preprocessing grows.
func TestDelayMeasurementSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	u := MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`)
	measure := func(width int) (prepPerInput, meanDelay float64, answers int) {
		inst := workload.Example2Instance(width, 3, 11)
		plan, err := NewPlan(u, inst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Mode != ConstantDelay {
			t.Fatal("not constant delay")
		}
		// Take the best of 3 runs to damp scheduler noise.
		best := -1.0
		for r := 0; r < 3; r++ {
			it := plan.Iterator()
			n := 0
			start := nowNanos()
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				n++
			}
			el := float64(nowNanos()-start) / float64(n)
			if best < 0 || el < best {
				best = el
				answers = n
			}
		}
		return 0, best, answers
	}
	_, small, nSmall := measure(500)
	_, large, nLarge := measure(4000)
	if nLarge <= nSmall {
		t.Fatalf("output did not grow: %d vs %d", nSmall, nLarge)
	}
	if large > small*4 {
		t.Errorf("per-answer cost grew from %.0fns to %.0fns on 8× input — not constant delay", small, large)
	}
}

func nowNanos() int64 {
	return time.Now().UnixNano()
}
