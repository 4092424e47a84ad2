package core

// Tasks are the unit every enumeration of a union plan is cut into: a
// certified extension's CDY plan is decomposed into root-range tasks
// (resumable slices of its enumeration) that the one merge
// (enumeration.Union) drains in batches — one full-range task per plan, in
// order, on the caller's goroutine for the inline source; splitFactor
// ranges per worker on the work-stealing executor, where one heavy CQ
// branch fans out across workers instead of saturating a single goroutine.
// There tasks re-split when stolen and shed half of their remainder to
// idle workers — the executor drives both through exec.Task.Split, which
// here delegates to the engine's range-cursor SplitOff.
//
// Tasks are also where the union is deduplicated, by the rank rule: an
// answer produced by member i is emitted iff no member j < i contains it
// (a constant-time index probe per top, yannakakis ContainsHead). Root
// ranges of one plan are disjoint and the rule makes members disjoint, so
// all tasks of a stream are pairwise disjoint and the merge holds no
// answer in memory.

import (
	"repro/internal/database"
	"repro/internal/exec"
	"repro/internal/yannakakis"
)

// splitFactor is how many initial root-range tasks each member plan is cut
// into per executor worker. A small factor suffices: residual imbalance is
// repaired adaptively by steal-time splitting.
const splitFactor = 2

// planTask is one resumable root-range slice [lo, hi) of a CDY plan's
// enumeration, yielding head tuples. Its engine iterator is created on the
// first batch (or split), so cutting a plan into tasks allocates nothing
// per range and a task that is never reached costs nothing.
type planTask struct {
	plan   *yannakakis.Plan
	lo, hi int
	it     *yannakakis.Iterator
	// earlier are the plans of the members ranked before this one in the
	// stream; their answers are skipped.
	earlier []*yannakakis.Plan
}

func (t *planTask) iter() *yannakakis.Iterator {
	if t.it == nil {
		t.it = t.plan.IteratorRange(t.lo, t.hi)
	}
	return t.it
}

// NextBatch implements exec.Task: head values are appended straight from
// the engine's assignment registers, with no per-answer tuple allocation,
// and an answer an earlier member contains is dropped again.
func (t *planTask) NextBatch(buf []database.Value, max int) ([]database.Value, int) {
	it := t.iter()
	n := 0
	for n < max && it.Next() {
		mark := len(buf)
		buf = it.AppendHead(buf)
		if anyContains(t.earlier, buf[mark:]) {
			buf = buf[:mark]
			continue
		}
		n++
	}
	return buf, n
}

// Split implements exec.Task by carving off half of the slice's unvisited
// root rows.
func (t *planTask) Split() exec.Task {
	if half := t.iter().SplitOff(); half != nil {
		return &planTask{it: half, earlier: t.earlier}
	}
	return nil
}

// planTasks appends the plan's root-range tasks to tasks: at most parts
// (and at least one) contiguous ranges that partition [0, RootLen), so the
// task streams are pairwise disjoint and together cover the plan's answers
// outside the earlier plans (see yannakakis.IteratorRange).
func planTasks(tasks []exec.Task, pl *yannakakis.Plan, earlier []*yannakakis.Plan, parts int) []exec.Task {
	n := pl.RootLen()
	parts = max(min(parts, n), 1)
	ranges := make([]planTask, parts)
	for i := range ranges {
		ranges[i] = planTask{plan: pl, lo: i * n / parts, hi: (i + 1) * n / parts, earlier: earlier}
		tasks = append(tasks, &ranges[i])
	}
	return tasks
}
