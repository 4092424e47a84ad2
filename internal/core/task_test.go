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
	"repro/internal/yannakakis"
)

// sortedTuples drains an iterator and sorts the answers for set comparison.
func sortedTuples(it enumeration.Iterator) []database.Tuple {
	out := enumeration.Collect(it)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// drainTask collects a task's answers of the given arity as strings.
func drainTask(task enumeration.Task, arity int) []string {
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

// TestPlanTasksPartitionAnswers: the member tasks of a union partition its
// answer set — the first member's task yields all of its answers, a later
// member's task exactly its answers outside the earlier members — and no
// task builds an engine iterator before its first batch.
func TestPlanTasksPartitionAnswers(t *testing.T) {
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
	heads := func(pl *yannakakis.Plan) map[string]bool {
		out := map[string]bool{}
		for it := pl.Iterator(); it.Next(); {
			out[it.HeadTuple().String()] = true
		}
		return out
	}
	var plans []*yannakakis.Plan
	for _, src := range []string{"Q1(x,y) <- R1(x,y).", "Q2(x,y) <- R2(x,y), R1(y,w)."} {
		sh, err := yannakakis.Compile(cq.MustParseCQ(src), nil)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := sh.Bind(inst)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, pl)
	}
	first, second := heads(plans[0]), heads(plans[1])
	overlap := 0
	for a := range second {
		if first[a] {
			overlap++
		}
	}
	if overlap == 0 || overlap == len(second) {
		t.Fatalf("members overlap in %d of %d answers; the test needs a partial overlap", overlap, len(second))
	}

	seen := map[string]bool{}
	for i, pl := range plans {
		task := &planTask{parts: pl.Minus(nil, nil), earlier: plans[:i]}
		if task.it != nil {
			t.Fatal("a task created an iterator before the first batch")
		}
		for _, a := range drainTask(task, 2) {
			if seen[a] {
				t.Fatalf("member %d: answer %s emitted twice", i, a)
			}
			if i > 0 && first[a] {
				t.Fatalf("member %d: answer %s of an earlier member was not skipped", i, a)
			}
			seen[a] = true
		}
	}
	for _, want := range []map[string]bool{first, second} {
		for a := range want {
			if !seen[a] {
				t.Fatalf("answer %s missing from the tasks", a)
			}
		}
	}
	if len(seen) != len(first)+len(second)-overlap {
		t.Fatalf("tasks yielded %d answers, want %d", len(seen), len(first)+len(second)-overlap)
	}
}

func example2Plan(t *testing.T) *UnionPlan {
	t.Helper()
	u := cq.MustParse(example2)
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatal("no certificate for Example 2")
	}
	plan, err := bindUnion(u, cert, workload.Example2Instance(100, 3, 7))
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
	plan, err := bindUnion(u, cert, inst)
	if err != nil {
		t.Fatal(err)
	}
	if all := enumeration.Collect(plan.Iterator()); len(all) != 20 {
		t.Fatalf("full union has %d answers, want 20", len(all))
	}
	got := sortedTuples(plan.Answers(context.Background(), map[string]struct{}{"R2": {}}))
	if len(got) != 10 {
		t.Fatalf("R2-restricted stream has %d answers, want Q2's 10", len(got))
	}
	for i, g := range got {
		if int64(g[1]) != int64(g[0])+5 {
			t.Fatalf("answer %d = %v is not a Q2 answer", i, g)
		}
	}
}

// TestSizeHintMatchesCardinality pins that a single-member plan's counting
// pass (ExactCount) equals the number of answers its stream enumerates.
func TestSizeHintMatchesCardinality(t *testing.T) {
	u := cq.MustParse("Q(x,y,w) <- R1(x,y), R2(y,w).")
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatal("no certificate")
	}
	inst := workload.Chain([]string{"R1", "R2"}, []int{2, 2}, 100, 3, 11)
	plan, err := bindUnion(u, cert, inst)
	if err != nil {
		t.Fatal(err)
	}
	want := len(sortedTuples(plan.Iterator()))
	got, ok := plan.ExactCount()
	if !ok {
		t.Fatal("ExactCount declined a single-member plan")
	}
	if got != int64(want) {
		t.Fatalf("ExactCount = %d, enumeration yields %d", got, want)
	}
}
