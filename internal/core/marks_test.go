package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/workload"
)

// These tests pin the rank rule's bind-time half — row marks and filtered
// copies (yannakakis Plan.Minus) — by structure, not by the clock: which
// earlier members a member is marked against, that a marked member drops
// no answer while streaming, and that its copies never backtrack.

// memberTasks returns one task per member of p, as Answers feeds them.
func memberTasks(p *UnionPlan) []*planTask {
	tasks := make([]*planTask, len(p.streams))
	for i, m := range p.streams {
		tasks[i] = &planTask{parts: m.parts, earlier: m.probed}
	}
	return tasks
}

// TestMarksContainmentFamily: Q2 = Q1 on every instance of the family, so
// Q2's tops, covering Q1's, are all marked, Q2 has no non-empty copy, and
// the stream is Q1's n answers with no answer dropped, at n, 4n and 16n.
func TestMarksContainmentFamily(t *testing.T) {
	u := cq.MustParse("Q1(x,y) <- R(x,y). Q2(x,y) <- S(x,y).")
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatal("no certificate")
	}
	for _, n := range []int{1000, 4000, 16000} {
		inst := database.NewInstance()
		for _, name := range []string{"R", "S"} {
			r := database.NewRelation(name, 2)
			for i := range n {
				r.AppendInts(int64(i), int64(i))
			}
			inst.AddRelation(r)
		}
		plan, err := bindUnion(u, cert, inst)
		if err != nil {
			t.Fatal(err)
		}
		if r := plan.ranks[1]; !slices.Equal(r.marked, []int{0}) || len(r.probed) != 0 {
			t.Fatalf("n=%d: member 1 marked against %v, probes %v; want marks against 0 and no probe", n, r.marked, r.probed)
		}
		if parts := len(plan.streams[1].parts); parts != 0 {
			t.Fatalf("n=%d: member 1 has %d non-empty copies, want 0", n, parts)
		}
		answers := 0
		for i, task := range memberTasks(plan) {
			answers += len(drainTask(task, 2))
			if task.dropped != 0 {
				t.Fatalf("n=%d: member %d dropped %d answers", n, i, task.dropped)
			}
		}
		if answers != n {
			t.Fatalf("n=%d: stream has %d answers", n, answers)
		}
		if got, ok := plan.ExactCount(); !ok || got != int64(n) {
			t.Fatalf("n=%d: ExactCount = %d, %v", n, got, ok)
		}
	}
}

// TestMarksExample2NoDrops: Example 2's Q2 is marked against Q1 on both of
// its tops, so it streams as two copies, drops no answer and never
// backtracks, and the counting passes of the copies add up to the stream.
func TestMarksExample2NoDrops(t *testing.T) {
	u := cq.MustParse(example2)
	cert, _ := FindCertificate(u, nil)
	for _, width := range []int{500, 2000} {
		plan, err := bindUnion(u, cert, workload.Example2Instance(width, 3, 7))
		if err != nil {
			t.Fatal(err)
		}
		if r := plan.ranks[1]; !slices.Equal(r.marked, []int{0}) || len(r.probed) != 0 || r.copies != 2 {
			t.Fatalf("width %d: member 1 marked against %v in %d copies, probes %v; want member 0, 2 copies, no probe",
				width, r.marked, r.copies, r.probed)
		}
		for k, pt := range plan.streams[1].parts {
			it := pt.Iterator()
			for it.Next() {
			}
			if it.Backtracks != 0 {
				t.Fatalf("width %d: copy %d backtracked %d times", width, k, it.Backtracks)
			}
		}
		answers := 0
		for i, task := range memberTasks(plan) {
			answers += len(drainTask(task, 3))
			if task.dropped != 0 {
				t.Fatalf("width %d: member %d dropped %d answers", width, i, task.dropped)
			}
		}
		if got, ok := plan.ExactCount(); !ok || got != int64(answers) {
			t.Fatalf("width %d: ExactCount = %d, %v; the stream has %d answers", width, got, ok, answers)
		}
	}
}

// TestMarksExample13Hybrid: Example 13's Q3 is marked against Q2, whose
// 2-variable tops its own carry, and probes Q1, whose top {y,v,u} no
// 2-variable top of Q3 covers; Q2 probes Q1 for the same reason. The
// stream still equals the naive evaluator's answers.
func TestMarksExample13Hybrid(t *testing.T) {
	u := cq.MustParse(example13)
	cert, _ := FindCertificate(u, nil)
	c, err := Compile(u, cert)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct{ marked, probed []int }{{nil, nil}, {nil, []int{0}}, {[]int{1}, []int{0}}} {
		if r := c.ranks[i]; !slices.Equal(r.marked, want.marked) || !slices.Equal(r.probed, want.probed) {
			t.Fatalf("member %d: marked against %v, probes %v; want %v and %v", i, r.marked, r.probed, want.marked, want.probed)
		}
	}
	if n := c.ranks[2].copies; n != 3 {
		t.Fatalf("member 2 has %d copies, want 3 (one per top carrying a top of member 1)", n)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := range 4 {
		inst := randomInstance(u, rng, 40, 5)
		plan, err := c.Bind(t.Context(), inst)
		if err != nil {
			t.Fatal(err)
		}
		checkRankRule(t, fmt.Sprintf("Example 13 trial %d", trial), u, inst, plan)
	}
}

// TestProviderRunsOncePerQueryAndS: Example 13's extensions of Q1 and Q3
// each read a Q2 provider run with S = {v,x,y}; the bind runs it once and
// translates its tuples into both virtual relations.
func TestProviderRunsOncePerQueryAndS(t *testing.T) {
	u := cq.MustParse(example13)
	cert, _ := FindCertificate(u, nil)
	plan, err := bindUnion(u, cert, workload.Example13Instance(30, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if runs := plan.Stats().ProviderRuns; runs != 3 {
		t.Fatalf("%d provider runs, want 3", runs)
	}
}

// TestMarksConcurrentDrain drains one bound Example 2 plan from several
// goroutines at once. Its copies are built at Bind and shared by every
// stream; run under -race, a stream that writes into them fails here.
func TestMarksConcurrentDrain(t *testing.T) {
	plan := example2Plan(t)
	sorted := func() []string {
		var out []string
		for _, a := range enumeration.Collect(plan.Iterator()) {
			out = append(out, a.String())
		}
		sort.Strings(out)
		return out
	}
	want := strings.Join(sorted(), "\n")
	const streams = 4
	var wg sync.WaitGroup
	for g := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := strings.Join(sorted(), "\n"); got != want {
				t.Errorf("stream %d disagrees with a sequential drain", g)
			}
		}()
	}
	wg.Wait()
}
