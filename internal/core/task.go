package core

// Task producers for the work-stealing executor: a certified extension's
// CDY plan is decomposed into root-range tasks (resumable slices of its
// enumeration), so one heavy CQ branch fans out across workers instead of
// saturating a single per-branch goroutine. Tasks re-split when stolen and
// shed half of their remainder to idle workers — the executor drives both
// through exec.Task.Split, which here delegates to the engine's
// range-cursor SplitOff.

import (
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/exec"
	"repro/internal/yannakakis"
)

// splitFactor is how many initial root-range tasks each member plan is cut
// into per executor worker. A small factor suffices: residual imbalance is
// repaired adaptively by steal-time splitting.
const splitFactor = 2

// planTask is one resumable root-range slice of a CDY plan's enumeration,
// yielding head tuples.
type planTask struct {
	it *yannakakis.Iterator
}

// NextBatch implements exec.Task: head values are appended straight from
// the engine's assignment registers, with no per-answer tuple allocation.
func (t *planTask) NextBatch(buf []database.Value, max int) ([]database.Value, int) {
	n := 0
	for n < max && t.it.Next() {
		buf = t.it.AppendHead(buf)
		n++
	}
	return buf, n
}

// Split implements exec.Task by carving off half of the slice's unvisited
// root rows.
func (t *planTask) Split() exec.Task {
	if half := t.it.SplitOff(); half != nil {
		return &planTask{it: half}
	}
	return nil
}

// planTasks cuts a prepared plan into root-range tasks, at most parts.
func planTasks(pl *yannakakis.Plan, parts int) []exec.Task {
	its := pl.Split(parts)
	out := make([]exec.Task, len(its))
	for i, it := range its {
		out[i] = &planTask{it: it}
	}
	return out
}

// execTasks builds the union's work units for an executor with the given
// worker count: the bonus answers recorded during preprocessing plus every
// member plan cut into root-range tasks. The boolean reports whether the
// task streams are pairwise disjoint and individually duplicate-free —
// true exactly when the union has one member and no bonus answers (a
// single CDY plan's head stream is duplicate-free, and root ranges
// partition it) — letting the merge skip deduplication.
func (p *UnionPlan) execTasks(workers int) ([]exec.Task, bool) {
	parts := splitFactor * workers
	if parts < 1 {
		parts = 1
	}
	var tasks []exec.Task
	if len(p.bonus) > 0 {
		tasks = append(tasks, enumeration.TaskOf(enumeration.NewSliceIterator(p.bonus)))
	}
	for _, pl := range p.plans {
		tasks = append(tasks, planTasks(pl, parts)...)
	}
	return tasks, len(p.plans) == 1 && len(p.bonus) == 0
}
