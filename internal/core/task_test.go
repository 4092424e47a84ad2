package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/exec"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// drainTask collects a task's answers of the given arity as strings.
func drainTask(task exec.Task, arity int) []string {
	var out []string
	for {
		buf, n := task.NextBatch(nil, 16)
		if n == 0 {
			return out
		}
		for i := 0; i < n; i++ {
			out = append(out, database.Tuple(buf[i*arity:(i+1)*arity]).String())
		}
	}
}

// TestPlanTasksPartitionAnswers: however many parts a plan is cut into, the
// root-range tasks yield a duplicate-free partition of the plan's answer
// set, never more tasks than root rows and never fewer than one, and every
// task is built without an engine iterator.
func TestPlanTasksPartitionAnswers(t *testing.T) {
	q := cq.MustParseCQ("Q(x,y,w) <- R1(x,y), R2(y,w).")
	rng := rand.New(rand.NewSource(1))
	inst := database.NewInstance()
	for _, name := range []string{"R1", "R2"} {
		r := database.NewRelation(name, 2)
		for i := 0; i < 120; i++ {
			r.AppendInts(rng.Int63n(40), rng.Int63n(40))
		}
		r.Dedup()
		inst.AddRelation(r)
	}
	plan, err := yannakakis.Prepare(q, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for it := plan.Iterator(); it.Next(); {
		want = append(want, it.HeadTuple().String())
	}
	if len(want) == 0 {
		t.Fatal("test plan has no answers")
	}
	sort.Strings(want)

	n := plan.RootLen()
	for _, parts := range []int{0, 1, 2, 3, 7, 64, n + 10} {
		tasks := planTasks(nil, plan, nil, parts)
		if wantTasks := max(min(parts, n), 1); len(tasks) != wantTasks {
			t.Fatalf("planTasks(%d) over %d root rows returned %d tasks, want %d", parts, n, len(tasks), wantTasks)
		}
		var got []string
		for _, task := range tasks {
			if task.(*planTask).it != nil {
				t.Fatalf("planTasks(%d) created an iterator before the first batch", parts)
			}
			got = append(got, drainTask(task, 3)...)
		}
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("planTasks(%d): %d answers, want %d", parts, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("planTasks(%d): answer %d = %s, want %s (lost or duplicated across ranges)", parts, i, got[i], want[i])
			}
		}
	}

	// Splitting an unstarted task and a started one keeps the partition.
	tasks := planTasks(nil, plan, nil, 1)
	half := tasks[0].Split()
	if half == nil {
		t.Fatal("a full-range task did not split")
	}
	buf, k := tasks[0].NextBatch(nil, 5)
	got := drainTask(half, 3)
	if later := tasks[0].Split(); later != nil {
		got = append(got, drainTask(later, 3)...)
	}
	for i := 0; i < k; i++ {
		got = append(got, database.Tuple(buf[i*3:(i+1)*3]).String())
	}
	got = append(got, drainTask(tasks[0], 3)...)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("split tasks: %d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("split tasks: answer %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func example2Plan(t *testing.T) *UnionPlan {
	t.Helper()
	u := cq.MustParse(example2)
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatal("no certificate for Example 2")
	}
	plan, err := NewUnionPlan(u, cert, workload.Example2Instance(100, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestInlineDrainAllocations guards the inline source's allocation
// behaviour on Example 2 (two overlapping members, so the rank rule's
// membership probes are live): a full drain allocates per batch, never per
// answer.
func TestInlineDrainAllocations(t *testing.T) {
	plan := example2Plan(t)
	answers := len(enumeration.Collect(plan.Iterator()))
	if answers < 1000 {
		t.Fatalf("Example 2 instance yields only %d answers", answers)
	}
	allocs := testing.AllocsPerRun(10, func() {
		it := plan.Iterator()
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	})
	if perAnswer := allocs / float64(answers); perAnswer >= 0.05 {
		t.Fatalf("inline drain allocates %.3f objects per answer (%v over %d answers), want < 0.05", perAnswer, allocs, answers)
	}
}

// TestFirstAnswerAllocations is the in-repo guard for first-answer latency:
// building the stream and pulling one answer must not allocate more objects
// than the tuple-at-a-time iterator stack this path replaced did on the
// same plan (29) — no per-range iterators, no pre-sized tables, a first
// batch of one tuple.
func TestFirstAnswerAllocations(t *testing.T) {
	plan := example2Plan(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := plan.Iterator().Next(); !ok {
			t.Fatal("no first answer")
		}
	})
	if allocs > 29 {
		t.Fatalf("Iterator() + first Next allocates %v objects, want ≤ 29", allocs)
	}
}

// TestAnswersMemberFilter: a non-empty names set keeps exactly the members
// whose footprint meets it — the delta-maintenance restriction.
func TestAnswersMemberFilter(t *testing.T) {
	u := cq.MustParse(`
		Q1(x,y) <- R1(x,y).
		Q2(x,y) <- R2(x,y).
	`)
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatal("no certificate")
	}
	inst := database.NewInstance()
	r1 := database.NewRelation("R1", 2)
	r2 := database.NewRelation("R2", 2)
	for i := int64(0); i < 10; i++ {
		r1.AppendInts(i, i)
		r2.AppendInts(i, i+5)
	}
	inst.AddRelation(r1)
	inst.AddRelation(r2)
	plan, err := NewUnionPlan(u, cert, inst)
	if err != nil {
		t.Fatal(err)
	}
	if all := enumeration.Collect(plan.Iterator()); len(all) != 20 {
		t.Fatalf("full union has %d answers, want 20", len(all))
	}
	for _, workers := range []int{0, 2} {
		it := plan.Answers(context.Background(), enumeration.UnionOptions{Workers: workers},
			map[string]struct{}{"R2": {}})
		got := sortedTuples(it)
		if len(got) != 10 {
			t.Fatalf("workers=%d: R2-restricted stream has %d answers, want Q2's 10", workers, len(got))
		}
		for i, g := range got {
			if g[1].Payload() != g[0].Payload()+5 {
				t.Fatalf("workers=%d: answer %d = %v is not a Q2 answer", workers, i, g)
			}
		}
	}
}
