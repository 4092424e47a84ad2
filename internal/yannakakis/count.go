package yannakakis

// This file computes exact output cardinalities of prepared plans and of
// their Parts: the answer count a union reports without enumerating
// (core.UnionPlan.ExactCount, behind Plan.CountExact and the server's
// count endpoints).

// countCap bounds the weights carried by the counting recurrence; counts
// saturate at this value instead of overflowing. It is far beyond any
// answer set that could be enumerated anyway.
const countCap = int64(1) << 50

// satMul multiplies two non-negative counts, saturating at countCap.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > countCap/b {
		return countCap
	}
	return a * b
}

// satAdd adds two non-negative counts, saturating at countCap.
func satAdd(a, b int64) int64 {
	if a > countCap-b {
		return countCap
	}
	return a + b
}

// CountAnswers returns the exact number of answers a fresh Iterator will
// produce — |Q(I)|S| — without enumerating them. It runs one linear pass
// over the DFS positions, children before parents: each row's weight is
// the product over child positions of the summed weights of the child rows
// joining it. A child's weights are summed per group, and each parent row
// reads its group's sum through its edge pointer, so the pass costs O(rows)
// per position, not O(join matches); the answer count is the root rows'
// weight sum. Counts saturate at countCap rather than overflow, so the
// result is safe to use directly as a sizing hint.
func (p *Plan) CountAnswers() int64 { return countAnswers(p.pos) }

// countAnswers is CountAnswers over pos, a plan's positions or a Part's.
func countAnswers(pos []position) int64 {
	weights := make([][]int64, len(pos))
	for k := range pos {
		w := make([]int64, pos[k].rows)
		for r := range w {
			w[r] = 1
		}
		weights[k] = w
	}
	// Pre-order puts every child after its parent, so walking it backwards
	// finishes a position's weights before folding them into its parent.
	for k := len(pos) - 1; k > 0; k-- {
		ps, cw := &pos[k], weights[k]
		sums := make([]int64, len(ps.offs)-1)
		for e := range sums {
			for _, w := range cw[ps.offs[e]:ps.offs[e+1]] {
				sums[e] = satAdd(sums[e], w)
			}
		}
		pw := weights[ps.parent]
		for r, e := range ps.down {
			pw[r] = satMul(pw[r], sums[e])
		}
		weights[k] = nil
	}
	total := int64(0)
	for _, w := range weights[0] {
		total = satAdd(total, w)
	}
	return total
}
