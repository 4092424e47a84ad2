package yannakakis

import "repro/internal/database"

// This file computes exact output cardinalities of prepared plans: the
// answer count a single-member union reports without enumerating
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

// entryOfCols projects row onto cols and returns the index entry of the
// resulting key, reusing buf as scratch space.
func entryOfCols(ix *database.Index, row database.Tuple, cols []int, buf database.Tuple) int {
	buf = buf[:0]
	for _, c := range cols {
		buf = append(buf, row[c])
	}
	return ix.EntryOf(buf)
}

// CountAnswers returns the exact number of answers a fresh Iterator will
// produce — |Q(I)|S| — without enumerating them. It runs one linear pass
// over the top join tree: processing nodes children-first, each row's
// weight becomes the product over child nodes of the summed weights of the
// child rows joining it (aggregated per index entry, so the pass costs
// O(rows) per node, not O(join matches)); the answer count is the root
// rows' weight sum. Counts saturate at countCap rather than overflow, so
// the result is safe to use directly as a sizing hint.
func (p *Plan) CountAnswers() int64 {
	if len(p.order) == 0 {
		return 0
	}
	// Children per node, restricted to the DFS order the iterator walks.
	kids := make([][]int, len(p.tops))
	for _, i := range p.order[1:] {
		kids[p.tops[i].parent] = append(kids[p.tops[i].parent], i)
	}
	weights := make([][]int64, len(p.tops))
	keyBuf := make(database.Tuple, 0, 16)
	for k := len(p.order) - 1; k >= 0; k-- {
		i := p.order[k]
		t := &p.tops[i]
		wi := make([]int64, t.rel.Len())
		for r := range wi {
			wi[r] = 1
		}
		for _, c := range kids[i] {
			ct := &p.tops[c]
			// Columns keying the child's DFS index, and the parent columns
			// holding the same variables (the child's key variables lie in
			// the parent by the running intersection property).
			var cc, pc []int
			for cCol, v := range ct.vars {
				if pCol := colIn(t.vars, v); pCol >= 0 {
					cc = append(cc, cCol)
					pc = append(pc, pCol)
				}
			}
			// Aggregate the child's row weights per index entry, then fold
			// each parent row's matching aggregate into its weight.
			agg := make([]int64, ct.index.NumKeys())
			cw := weights[c]
			for r := 0; r < ct.rel.Len(); r++ {
				if e := entryOfCols(ct.index, ct.rel.Row(r), cc, keyBuf); e >= 0 {
					agg[e] = satAdd(agg[e], cw[r])
				}
			}
			weights[c] = nil
			for r := range wi {
				if wi[r] == 0 {
					continue
				}
				e := entryOfCols(ct.index, t.rel.Row(r), pc, keyBuf)
				if e < 0 {
					wi[r] = 0
					continue
				}
				wi[r] = satMul(wi[r], agg[e])
			}
		}
		weights[i] = wi
	}
	total := int64(0)
	for _, w := range weights[p.order[0]] {
		total = satAdd(total, w)
	}
	return total
}
