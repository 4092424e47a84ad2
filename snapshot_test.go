package ucq

import "testing"

// TestBoundPlanSurvivesAppend pins the snapshot contract of Bind: a bound
// plan may share row storage with the instance, and must still answer for
// the instance as it was bound. Rows appended to the caller's relations
// afterwards — new ones that would create answers and repeats of old ones —
// reach neither the plan's root range, its indexes nor its membership
// probes; a second Bind sees them. Run under -race with Workers 4, the
// executor's reads of the shared rows overlap nothing the appends wrote.
func TestBoundPlanSurvivesAppend(t *testing.T) {
	u := MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`)
	for _, workers := range []int{0, 4} {
		// Every relation is the same cycle with chords over one domain, so no
		// row dangles anywhere: no reduction copies, and every top relation
		// of the bound plan is a view of the caller's rows.
		const n = 50
		inst := NewInstance()
		for _, name := range []string{"R1", "R2", "R3"} {
			rel := NewRelation(name, 2)
			for v := int64(0); v < n; v++ {
				rel.AppendInts(v, (v+1)%n)
				rel.AppendInts(v, (v+7)%n)
			}
			inst.AddRelation(rel)
		}
		naive, err := NewPlan(u, inst, &PlanOptions{ForceNaive: true})
		if err != nil {
			t.Fatal(err)
		}
		asBound := canonicalAnswers(t, naive)

		pq, err := Prepare(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts := &PlanOptions{Workers: workers}
		p, err := pq.BindExec(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if p.Mode != ConstantDelay {
			t.Fatal("Example 2 is not certified; the test would not exercise the bind")
		}

		// Repeats of a stored row — the first ones land in the spare capacity
		// of the array the plan shares, the rest outgrow it — then a path
		// over fresh values, which adds an answer to both members.
		for i, name := range []string{"R1", "R2", "R3"} {
			rel := inst.Relation(name)
			first := rel.Row(0).Clone()
			for k, n := 0, 2*rel.Len(); k < n; k++ {
				rel.Append(first...)
			}
			rel.AppendInts(int64(1_000_000+i), int64(1_000_001+i))
		}

		if got := canonicalAnswers(t, p); got != asBound {
			t.Errorf("workers %d: the plan bound before the appends no longer enumerates the instance as bound", workers)
		}
		naive, err = NewPlan(u, inst, &PlanOptions{ForceNaive: true})
		if err != nil {
			t.Fatal(err)
		}
		appended := canonicalAnswers(t, naive)
		if appended == asBound {
			t.Fatal("the appended rows created no answer; the test would not see a leak")
		}
		again, err := pq.BindExec(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalAnswers(t, again); got != appended {
			t.Errorf("workers %d: a second Bind does not see the appended rows", workers)
		}
	}
}
