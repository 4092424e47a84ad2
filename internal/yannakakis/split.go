package yannakakis

// This file is the range-cursor API behind task-based parallel
// enumeration: a prepared plan's answer stream is partitioned by slicing
// the root DFS position's candidate rows into contiguous ranges, each an
// independent resumable Iterator. Disjointness is structural: an answer
// fixes one row per top node (top relations are duplicate-free and their
// columns are exactly their variables), so answers from different root
// rows are distinct and a partition of the root rows partitions the answer
// set. A partially drained range iterator can further shed the second half
// of its unvisited rows through SplitOff — the primitive the work-stealing
// executor uses to decompose a heavy range adaptively.

// SplitOff carves off roughly the second half of the iterator's unvisited
// root rows into a new independent iterator, shrinking the receiver; the
// two iterators together produce exactly the answers the receiver alone
// would have. It returns nil when fewer than two unvisited root rows
// remain. SplitOff must not be called concurrently with Next: the
// executor's contract is that only the worker owning the iterator splits
// it, between batches.
func (it *Iterator) SplitOff() *Iterator {
	if it.exhausted {
		return nil
	}
	if !it.started {
		n := it.rootHi - it.rootLo
		if n < 2 {
			return nil
		}
		mid := it.rootLo + n/2
		other := it.plan.IteratorRange(mid, it.rootHi)
		it.rootHi = mid
		return other
	}
	// Started: cursors[0] points (as an offset from rootLo) at the root row
	// currently being enumerated, which stays with the receiver.
	cur := it.rootLo + it.cursors[0]
	remaining := it.rootHi - cur - 1
	if remaining < 2 {
		return nil
	}
	cut := cur + 1 + remaining/2
	other := it.plan.IteratorRange(cut, it.rootHi)
	it.rootHi = cut
	return other
}

// RootRange reports the iterator's current root row range [lo, hi); the
// range shrinks as SplitOff sheds work.
func (it *Iterator) RootRange() (lo, hi int) { return it.rootLo, it.rootHi }
