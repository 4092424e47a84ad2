package core

// Tasks are the unit every enumeration of a union plan is fed to the one
// merge (enumeration.Union) in: one task per certified extension's CDY
// plan, in rank order, drained in batches on the caller's goroutine.
//
// Tasks are also where the union is deduplicated, by the rank rule: an
// answer produced by member i is emitted iff no member j < i contains it
// (a constant-time index probe per top, yannakakis ContainsHead). The rule
// makes members disjoint, so all tasks of a stream are pairwise disjoint
// and the merge holds no answer in memory.

import (
	"repro/internal/database"
	"repro/internal/yannakakis"
)

// planTask is one member plan's resumable enumeration, yielding head
// tuples. Its engine iterator is created on the first batch, so a member
// the stream never reaches costs nothing.
type planTask struct {
	plan *yannakakis.Plan
	it   *yannakakis.Iterator
	// earlier are the plans of the members ranked before this one in the
	// stream; their answers are skipped.
	earlier []*yannakakis.Plan
}

// NextBatch implements enumeration.Task: head values are appended straight
// from the engine's assignment registers, with no per-answer tuple
// allocation, and an answer an earlier member contains is dropped again.
func (t *planTask) NextBatch(buf []database.Value, max int) ([]database.Value, int) {
	if t.it == nil {
		t.it = t.plan.Iterator()
	}
	it := t.it
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
