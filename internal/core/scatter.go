package core

import "repro/internal/yannakakis"

// Root-range scatter support.
//
// A union plan's answer stream is partitioned into disjoint contiguous
// root-row ranges of one domain exactly when the whole stream comes from
// one CDY plan: a single certified extension. That is the same condition
// as ExactCount — every answer fixes one row of the root top relation, so
// ranges over [0, RootLen) partition the answer set. The distributed
// coordinator (internal/cluster) uses this to scatter one query across
// workers as root-row ranges and concatenate the streams; multi-branch
// unions take the single-worker fallback instead.

// RootLen reports the size of the root-row domain that partitions the
// union's answer set, when one exists: ok is true iff the union has a
// single member plan. The root-row indices are deterministic for a fixed
// (query, instance) preparation, so two nodes that bound the same query
// against identical replicas agree on them.
func (p *UnionPlan) RootLen() (int, bool) {
	if len(p.plans) == 1 {
		return p.plans[0].RootLen(), true
	}
	return 0, false
}

// RootRangeIterator returns a sequential iterator over exactly the union
// answers whose root row index lies in [lo, hi), in ascending root order
// (bounds are clamped). ok is false when the union's answer set is not
// root-range partitionable (see RootLen).
func (p *UnionPlan) RootRangeIterator(lo, hi int) (*yannakakis.Iterator, bool) {
	if _, ok := p.RootLen(); !ok {
		return nil, false
	}
	return p.plans[0].IteratorRange(lo, hi), true
}
