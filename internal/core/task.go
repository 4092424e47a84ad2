package core

// Tasks are the unit every enumeration of a union plan is fed to the one
// merge (enumeration.Union) in: one task per certified extension, in rank
// order, drained in batches on the caller's goroutine.
//
// Tasks are also where the union is deduplicated, by the rank rule: an
// answer produced by member i is emitted iff no member j < i contains it.
// Bind settles the rule for every earlier member that member i's tops
// cover: the task walks the copies of i's tree that leave those members'
// answers out (yannakakis Plan.Minus), none of which holds a row that
// cannot complete to an answer. For the other earlier members it probes
// each answer, a constant-time index probe per top (yannakakis
// ContainsHead). The rule makes members disjoint, so all tasks of a stream
// are pairwise disjoint and the merge holds no answer in memory.
//
// The delay of a task whose earlier members are all marked against is
// that of one plan: every answer a copy reaches is emitted, the copies
// never backtrack, so two answers are O(depth) steps apart plus at most
// one switch between copies. A probed member may drop answers, which a
// task skips in place.

import (
	"repro/internal/database"
	"repro/internal/yannakakis"
)

// planTask is one member's resumable enumeration, yielding head tuples.
// Its engine iterators are created part by part, on the batch that
// reaches each part, so a member the stream never reaches costs nothing.
type planTask struct {
	// parts are the member's copies not yet started, in order, and it
	// the iterator over the one being drained.
	parts []*yannakakis.Part
	it    *yannakakis.Iterator
	// earlier are the plans of the members ranked before this one that
	// the parts do not already leave out; their answers are dropped.
	earlier []*yannakakis.Plan
	// dropped counts the answers dropped because an earlier plan
	// contains them.
	dropped int
}

// NextBatch implements enumeration.Task: head values are appended straight
// from the engine's assignment registers, with no per-answer tuple
// allocation, and an answer a probed earlier member contains is dropped
// again.
func (t *planTask) NextBatch(buf []database.Value, max int) ([]database.Value, int) {
	n := 0
	for n < max {
		if t.it == nil {
			if len(t.parts) == 0 {
				break
			}
			t.it, t.parts = t.parts[0].Iterator(), t.parts[1:]
		}
		it := t.it
		for n < max && it.Next() {
			mark := len(buf)
			buf = it.AppendHead(buf)
			if len(t.earlier) > 0 && anyContains(t.earlier, buf[mark:]) {
				buf = buf[:mark]
				t.dropped++
				continue
			}
			n++
		}
		if n < max {
			t.it = nil // this part is exhausted
		}
	}
	return buf, n
}
