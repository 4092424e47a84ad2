package ucq

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/enumeration"
	"repro/internal/workload"
)

// TestWorkStealingSkewSpeedup asserts the acceptance bar of the executor
// refactor on machines with enough cores: on the E16 workload (a self-join
// with no safe partition attribute and ~91% output skew), the
// work-stealing executor at 8 workers must beat the per-branch-worker
// model — where the whole branch serialises on one goroutine — by ≥ 2x.
// Skipped below 8 CPUs (a scheduler cannot conjure parallel speedup out of
// timeshared cores) and in -short mode.
func TestWorkStealingSkewSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock scaling measurement")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("need ≥ 8 CPUs for an 8-worker scaling assertion, have %d", runtime.NumCPU())
	}

	u := MustParse("Q(x,y,w) <- R2(x,y), R2(y,w).")
	inst := workload.SelfJoinSkew(1000, 1000, 110, 30, 1)
	want := 1000*1000 + 110*30*30
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatal("no certificate")
	}
	plan, err := core.NewUnionPlan(u, cert, inst)
	if err != nil {
		t.Fatal(err)
	}

	drainN := func(workers int) time.Duration {
		start := time.Now()
		it := plan.Answers(context.Background(), enumeration.UnionOptions{Workers: workers}, nil)
		n := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		if n != want {
			t.Fatalf("workers=%d: %d answers, want %d", workers, n, want)
		}
		return time.Since(start)
	}

	// worksteal-1 is the honest single-worker baseline: the same executor
	// and merge, with parallelism as the only variable — exactly what the
	// pre-executor model delivered for this query (one indivisible branch,
	// however many workers were configured). Best of 3 on both sides
	// guards against scheduler noise.
	best := func(workers int) time.Duration {
		b := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			if d := drainN(workers); d < b {
				b = d
			}
		}
		return b
	}
	single := best(1)
	eight := best(8)
	speedup := float64(single) / float64(eight)
	t.Logf("skewed self-join: 1 worker %v, 8 workers %v, speedup %.2fx", single, eight, speedup)
	if speedup < 2 {
		t.Errorf("work-stealing at 8 workers speeds up %.2fx over one worker, want ≥ 2x", speedup)
	}
}

// TestWorkStealingUsesAllWorkersOnSkew checks the mechanism rather than
// the wall clock (so it runs on any machine): draining the skewed
// self-join with 8 workers must involve steals and re-splits — the heavy
// branch is decomposed, not owned end to end by one goroutine.
func TestWorkStealingUsesAllWorkersOnSkew(t *testing.T) {
	u := MustParse("Q(x,y,w) <- R2(x,y), R2(y,w).")
	inst := workload.SelfJoinSkew(200, 200, 30, 10, 1)
	want := 200*200 + 30*10*10
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatal("no certificate")
	}
	plan, err := core.NewUnionPlan(u, cert, inst)
	if err != nil {
		t.Fatal(err)
	}
	it := plan.Answers(context.Background(), enumeration.UnionOptions{Workers: 8, BatchSize: 16}, nil)
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != want {
		t.Fatalf("%d answers, want %d", n, want)
	}
	st := it.Stats()
	if st.Tasks < 8 {
		t.Errorf("only %d tasks ran; the branch was not decomposed (stats %+v)", st.Tasks, st)
	}
	if st.Splits == 0 && st.Steals == 0 {
		t.Errorf("no steals or splits on a skewed branch (stats %+v)", st)
	}
	if testing.Verbose() {
		fmt.Printf("worksteal stats: %+v\n", st)
	}
}
