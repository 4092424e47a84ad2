package yannakakis

// This file decides, at bind time, which answers of one plan another plan
// contains, and splits the plan's answers outside it into filtered copies
// of its reduced tree: the rank rule of a certified union (core.UnionPlan)
// applied to rows once instead of to every answer.
//
// An answer of a plan q is a tuple whose projection onto every top U of q
// is a row of U's reduced relation (the full reduction makes the join of
// the tops exactly the answer set). When every top U of q has its
// variables — matched through the heads, position by position — inside
// some top T of a plan p, an answer of p lies in q iff, for every U, the
// row it binds at U's carrier T projects onto a row of U. That is a
// property of the row alone: the row's mark for q. So an answer of p is in
// q iff every row it binds is marked, and p's answers outside q split by
// the first position, in DFS order, whose row is unmarked.

import (
	"math/bits"
	"slices"

	"repro/internal/database"
)

// Cover is a compiled row-wise containment test of the answers of one
// shape's plans (the covered shape) in another's: for each top U of the
// covered shape, the first top of this shape, in DFS order, that carries
// U's variables. Compile it with Shape.Cover; it is read-only.
type Cover struct {
	parts []coverPart
	// carriers are the DFS positions carrying some top of the covered
	// shape, ascending. A row at any other position is always marked.
	carriers []int
}

// coverPart is one top of the covered shape and its carrier.
type coverPart struct {
	// top is the covered shape's top and pos the carrier's DFS position.
	top, pos int
	// cols[c] is the carrier's column holding the variable of top's
	// column c.
	cols []int
	// same is set when cols is a permutation of the carrier's columns:
	// both tops are over the same variables, and a row of either names at
	// most one row of the other.
	same bool
}

// Cover compiles the row-wise test of of's answers in this shape's, with
// the heads matched positionally, as a union's members are. It returns nil
// when some top of of has no carrier here, or when of repeats a head
// variable at positions this shape does not — the tops cannot see that
// equality — or when either shape cannot decide membership from its head
// (HeadTestable).
func (sh *Shape) Cover(of *Shape) *Cover {
	if sh.headProbe == nil || of.headProbe == nil || len(sh.headIDs) != len(of.headIDs) {
		return nil
	}
	for _, e := range of.headProbe.eq {
		if sh.headIDs[e[0]] != sh.headIDs[e[1]] {
			return nil
		}
	}
	c := &Cover{}
	carries := make([]bool, len(sh.order))
	for u, heads := range of.headProbe.cols {
		part, ok := sh.carrier(heads)
		if !ok {
			return nil
		}
		part.top = u
		c.parts = append(c.parts, part)
		carries[part.pos] = true
	}
	for k, ok := range carries {
		if ok {
			c.carriers = append(c.carriers, k)
		}
	}
	return c
}

// carrier finds the first DFS position whose top holds the variables at
// the given head positions.
func (sh *Shape) carrier(heads []int) (coverPart, bool) {
	for k, i := range sh.order {
		varIDs := sh.tops[i].varIDs
		holds := true
		for _, h := range heads {
			holds = holds && slices.Contains(varIDs, sh.headIDs[h])
		}
		if !holds {
			continue
		}
		cols := make([]int, len(heads))
		for c, h := range heads {
			cols[c] = slices.Index(varIDs, sh.headIDs[h])
		}
		same := len(cols) == len(varIDs)
		for c, col := range cols {
			same = same && slices.Index(cols, col) == c
		}
		return coverPart{pos: k, cols: cols, same: same}, true
	}
	return coverPart{}, false
}

// Carriers returns the number of DFS positions carrying a top of the
// covered shape: the number of ways an answer can leave it, by the first
// of them whose row is unmarked.
func (c *Cover) Carriers() int { return len(c.carriers) }

// Part is a subset of a plan's answers: the join of a filtered copy of its
// positions. A position that keeps all its rows shares the plan's arrays,
// and so does a child's group array when its parent keeps all its rows.
// Its iterator walks the copy exactly as a plan's, with no hashing.
type Part struct {
	plan *Plan
	pos  []position
}

// Iterator returns a fresh iterator over the part's answers.
func (pt *Part) Iterator() *Iterator { return pt.plan.iterator(pt.pos) }

// CountAnswers returns the number of answers a fresh Iterator produces,
// without enumerating them (see Plan.CountAnswers).
func (pt *Part) CountAnswers() int64 { return countAnswers(pt.pos) }

// Minus returns p's answers contained in none of the plans of, as
// disjoint parts; covers[m] is p's shape's Cover of of[m]'s shape. It
// marks the rows once, then builds one copy of p's positions per choice,
// for each m, of the carrier where an answer first leaves of[m]: the copy
// keeps the rows marked for of[m] at its carriers before the chosen one,
// the rows unmarked at the chosen one, and every row elsewhere. An answer
// outside all of them lies in exactly one copy; an answer inside one of
// them in none. Empty copies are dropped, so the result holds at most
// Π_m covers[m].Carriers() parts; with no covers it is p itself, unless p
// has no answer.
//
// Each copy is then reduced bottom-up: a row whose group of kept rows in
// some child position is empty is dropped too. Every kept row reachable
// from a kept root row therefore has a kept completion below it, so the
// copy's iterator, like a plan's, never backtracks (Iterator.Backtracks
// stays 0): the gap between two answers of a copy is O(depth) steps, and
// between the parts of one plan one more switch. Within the plan the
// answer order is copy by copy, each copy in the plan's DFS order.
func (p *Plan) Minus(covers []*Cover, of []*Plan) []*Part {
	if p.pos[0].rows == 0 {
		return nil
	}
	if len(covers) == 0 {
		return []*Part{{plan: p, pos: p.pos}}
	}
	n := len(p.pos)
	cp := copier{p: p, covers: covers, marks: make([][][]uint64, len(covers)),
		keep: make([][]uint64, n), bufs: make([][]uint64, n), counts: make([][]int32, n)}
	// limit[m] is the number of covers[m]'s carriers worth choosing.
	limit := make([]int, len(covers))
	for m, c := range covers {
		cp.marks[m], limit[m] = p.marks(c, of[m])
	}
	var parts []*Part
	choice := make([]int, len(covers))
	for {
		cp.choose(choice)
		if part := cp.restrict(); part != nil {
			parts = append(parts, part)
		}
		m := len(covers) - 1
		for ; m >= 0; m-- {
			if choice[m]++; choice[m] < limit[m] {
				break
			}
			choice[m] = 0
		}
		if m < 0 {
			return parts
		}
	}
}

// marks returns, per DFS position, a bitset over its rows: at a carrier of
// c, bit r is set iff row r projects onto a row of every top of q it
// carries; other positions get nil (every row marked). It stops after the
// first carrier with no marked row and returns how many carriers it
// marked: an answer that first leaves q at a later carrier would bind a
// marked row there, so the copies choosing a later one are empty.
func (p *Plan) marks(c *Cover, q *Plan) ([][]uint64, int) {
	out := make([][]uint64, len(p.pos))
	for n, k := range c.carriers {
		for i := range c.parts {
			if part := &c.parts[i]; part.pos == k {
				in := p.probe(part, q)
				if m := out[k]; m != nil {
					for w := range m {
						m[w] &= in[w]
					}
				} else {
					out[k] = in
				}
			}
		}
		if ones(out[k]) == 0 {
			return out, n + 1
		}
	}
	return out, len(c.carriers)
}

// probe returns the bitset of the carrier's rows that project onto a row
// of q's top part.top. Over the same variables it walks the smaller of the
// two relations and looks the rows up in the other's full-key table — a
// top relation is a set, so an entry of that table is a row number.
func (p *Plan) probe(part *coverPart, q *Plan) []uint64 {
	ps := &p.pos[part.pos]
	qs := &q.pos[q.shape.tops[part.top].pos]
	in := make([]uint64, words(ps.rows))
	var buf [8]database.Value
	key := append(buf[:0], make([]database.Value, len(part.cols))...)
	if part.same && qs.rows < ps.rows {
		full, w := p.fullKeys(p.shape.order[part.pos]), len(part.cols)
		for r := range qs.rows {
			row := qs.vals[r*w : (r+1)*w]
			for c, col := range part.cols {
				key[col] = row[c]
			}
			if e := full.EntryOf(key); e >= 0 {
				in[e>>6] |= 1 << (e & 63)
			}
		}
		return in
	}
	full, w := q.fullKeys(part.top), len(ps.varIDs)
	for r := range ps.rows {
		row := ps.vals[r*w : (r+1)*w]
		for c, col := range part.cols {
			key[c] = row[col]
		}
		if full.Contains(key) {
			in[r>>6] |= 1 << (r & 63)
		}
	}
	return in
}

// copier builds Minus's copies of a plan one after another.
type copier struct {
	p      *Plan
	covers []*Cover
	// marks[m] are the plan's row marks for covers[m] (see Plan.marks).
	marks [][][]uint64
	// keep[k] is the current copy's row set at DFS position k (nil: every
	// row), in bufs[k], which every copy reuses; counts[k][e+1] is the
	// number of its rows in group e.
	keep, bufs [][]uint64
	counts     [][]int32
}

// all sets the copy's row set at position k to every row and returns it.
func (cp *copier) all(k int) []uint64 {
	n := cp.p.pos[k].rows
	b := cp.bufs[k]
	if b == nil {
		b = make([]uint64, words(n))
		cp.bufs[k] = b
	}
	for w := range b {
		b[w] = ^uint64(0)
	}
	if n%64 != 0 {
		b[len(b)-1] = 1<<(n%64) - 1
	}
	cp.keep[k] = b
	return b
}

// choose sets the row sets of the copy that choice names: for each cover,
// the marked rows at its carriers before the chosen one and the unmarked
// rows at the chosen one.
func (cp *copier) choose(choice []int) {
	clear(cp.keep)
	clear(cp.counts)
	for m, c := range cp.covers {
		chosen := c.carriers[choice[m]]
		for _, k := range c.carriers[:choice[m]+1] {
			kk := cp.keep[k]
			if kk == nil {
				kk = cp.all(k)
			}
			mk := cp.marks[m][k]
			for w := range kk {
				if k == chosen {
					kk[w] &^= mk[w]
				} else {
					kk[w] &= mk[w]
				}
			}
		}
	}
}

// restrict builds the copy of the plan's positions that keeps the rows of
// the chosen row sets, reduced bottom-up, or returns nil when no root row
// survives.
func (cp *copier) restrict() *Part {
	p, keep, counts := cp.p, cp.keep, cp.counts
	// Reverse pre-order settles a position's rows, by its children, before
	// it is counted and its parent's rows are checked against it.
	for k := len(p.pos) - 1; k > 0; k-- {
		ps, kk := &p.pos[k], keep[k]
		if kk == nil {
			continue // every group pointed at is non-empty
		}
		// Groups are contiguous and ascending: walk the kept rows once,
		// advancing the group as they pass its end.
		cnt := make([]int32, len(ps.offs))
		e := 0
		for w, word := range kk {
			for ; word != 0; word &= word - 1 {
				r := int32(w*64 + bits.TrailingZeros64(word))
				for ps.offs[e+1] <= r {
					e++
				}
				cnt[e+1]++
			}
		}
		counts[k] = cnt
		for r, e := range ps.down {
			if cnt[e+1] == 0 {
				pk := keep[ps.parent]
				if pk == nil {
					pk = cp.all(ps.parent)
				}
				pk[r>>6] &^= 1 << (r & 63)
			}
		}
	}
	if keep[0] != nil && ones(keep[0]) == 0 {
		return nil
	}
	pos := slices.Clone(p.pos)
	for k := range pos {
		ps := &pos[k]
		if kk := keep[k]; kk != nil {
			if kept := ones(kk); kept < ps.rows {
				ps.rows, ps.vals = kept, filterRows(ps.vals, len(ps.varIDs), kept, kk)
			} else {
				// Every row kept: share the plan's rows, groups and pointers.
				keep[k], counts[k] = nil, nil
			}
		}
		if k == 0 {
			continue
		}
		if pk := keep[ps.parent]; pk != nil {
			ps.down = filterDown(ps.down, pos[ps.parent].rows, pk)
		}
		if cnt := counts[k]; cnt != nil {
			for e := 1; e < len(cnt); e++ {
				cnt[e] += cnt[e-1]
			}
			ps.offs = cnt
		}
	}
	return &Part{plan: p, pos: pos}
}

// words returns the number of 64-bit words of a bitset over n rows.
func words(n int) int { return (n + 63) / 64 }

// ones counts the set bits of b.
func ones(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// filterRows returns the n rows, width values each, whose bit keep sets.
func filterRows(vals []database.Value, width, n int, keep []uint64) []database.Value {
	out, o := make([]database.Value, n*width), 0
	for w, word := range keep {
		for ; word != 0; word &= word - 1 {
			row := vals[(w*64+bits.TrailingZeros64(word))*width:]
			for c := range width {
				out[o+c] = row[c]
			}
			o += width
		}
	}
	return out
}

// filterDown returns the edge pointers of the n parent rows keep sets.
func filterDown(down []int32, n int, keep []uint64) []int32 {
	out, o := make([]int32, n), 0
	for w, word := range keep {
		for ; word != 0; word &= word - 1 {
			out[o] = down[w*64+bits.TrailingZeros64(word)]
			o++
		}
	}
	return out
}
