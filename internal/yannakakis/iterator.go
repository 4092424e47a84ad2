package yannakakis

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/database"
)

// Iterator enumerates the assignments Q(I)|S of a prepared plan with
// constant delay and no duplicates. The zero value is not usable; obtain
// iterators from Plan.Iterator.
//
// The iterator is an odometer over the DFS pre-order of the top join tree:
// each position runs over the rows matching the ancestor assignment, which
// are the group its parent's current row points at (one array read), and
// after the full reduction every candidate extends to a complete answer,
// so no backtracking occurs.
type Iterator struct {
	plan *Plan
	pos  []position
	// cursors[k] is the row DFS position k has bound, and ends[k] the end
	// of its candidates: all rows for the root, the group the parent row
	// points at for any other position.
	cursors   []int
	ends      []int
	assign    []database.Value
	started   bool
	exhausted bool
	extended  bool
	keyBuf    []database.Value
	// Backtracks counts DFS positions that produced no candidates; after a
	// full reduction this stays 0 and tests assert it.
	Backtracks int
}

// Var returns the current value of the variable with the given id (see
// Shape.VarID).
func (it *Iterator) Var(id int) database.Value { return it.assign[id] }

// Iterator returns a fresh iterator over the plan's answers.
func (p *Plan) Iterator() *Iterator { return p.iterator(p.pos) }

// iterator returns a fresh iterator over the join of pos, the plan's
// positions or a Part's filtered copy of them.
func (p *Plan) iterator(pos []position) *Iterator {
	return &Iterator{
		plan:    p,
		pos:     pos,
		cursors: make([]int, len(pos)),
		ends:    make([]int, len(pos)),
		assign:  make([]database.Value, len(p.shape.varName)),
	}
}

// Next advances to the next S-assignment, reporting false on exhaustion.
func (it *Iterator) Next() bool {
	if it.exhausted {
		return false
	}
	it.extended = false
	n := len(it.pos)
	var k int
	if !it.started {
		it.started = true
		k = 0
		it.ends[0] = it.pos[0].rows
	} else {
		k = n - 1
		it.cursors[k]++
	}
	// Odometer walk: at position k, either bind the current candidate and
	// move deeper (filling the next position), or, when candidates are
	// exhausted, back up and advance the previous position. After the full
	// reduction every fill is non-empty, so the walk never backs up except
	// through genuinely exhausted positions.
	for {
		if it.cursors[k] < it.ends[k] {
			it.bind(k)
			if k == n-1 {
				return true
			}
			k++
			it.fill(k)
			continue
		}
		if k == 0 {
			it.exhausted = true
			return false
		}
		k--
		it.cursors[k]++
	}
}

// fill points DFS position k > 0 at its candidate rows for the current
// ancestor assignment: the group its parent's current row points at.
func (it *Iterator) fill(k int) {
	ps := &it.pos[k]
	e := ps.down[it.cursors[ps.parent]]
	it.cursors[k], it.ends[k] = int(ps.offs[e]), int(ps.offs[e+1])
	if it.cursors[k] == it.ends[k] {
		it.Backtracks++
	}
}

// bind writes DFS position k's current row into the assignment.
func (it *Iterator) bind(k int) {
	ps := &it.pos[k]
	row := ps.vals[it.cursors[k]*len(ps.varIDs):]
	for c, vid := range ps.varIDs {
		it.assign[vid] = row[c]
	}
}

// Plan returns the plan this iterator enumerates.
func (it *Iterator) Plan() *Plan { return it.plan }

// Value returns the current value of a variable. Before Extend, only
// variables in S are meaningful.
func (it *Iterator) Value(v cq.Variable) database.Value {
	id := it.plan.VarID(v)
	if id < 0 {
		panic(fmt.Sprintf("yannakakis: variable %s not in query %s", v, it.plan.Q.Name))
	}
	return it.assign[id]
}

// STuple returns the current S-assignment as a tuple over Plan.SVars.
func (it *Iterator) STuple() database.Tuple {
	out := make(database.Tuple, len(it.plan.shape.sIDs))
	for i, id := range it.plan.shape.sIDs {
		out[i] = it.assign[id]
	}
	return out
}

// HeadTuple returns the current assignment projected onto the query head.
// All head variables must be in S (the usual case S = free(Q)) unless
// Extend was called first.
func (it *Iterator) HeadTuple() database.Tuple {
	out := make(database.Tuple, len(it.plan.headIDs))
	for i, id := range it.plan.headIDs {
		out[i] = it.assign[id]
	}
	return out
}

// AppendHead appends the current head tuple's values to buf without
// allocating; it is the batched-enumeration counterpart of HeadTuple.
func (it *Iterator) AppendHead(buf []database.Value) []database.Value {
	for _, id := range it.plan.headIDs {
		buf = append(buf, it.assign[id])
	}
	return buf
}

// Extend completes the current S-assignment to a full homomorphism by
// replaying the elimination log backwards (the Lemma 8 extension): each
// logged projection looks up one matching pre-projection row. It is a
// constant-time operation per answer for a fixed query. Extend panics on a
// broken internal invariant; by construction every enumerated S-tuple has
// an extension.
func (it *Iterator) Extend() {
	if it.extended {
		return
	}
	for i := len(it.plan.proj) - 1; i >= 0; i-- {
		e := &it.plan.proj[i]
		it.keyBuf = it.keyBuf[:0]
		for _, vid := range e.step.ids {
			it.keyBuf = append(it.keyBuf, it.assign[vid])
		}
		rows := e.extension().Lookup(it.keyBuf)
		if len(rows) == 0 {
			panic(fmt.Sprintf("yannakakis: internal error: no extension for %s in %s",
				it.plan.shape.varName[e.step.removedID], it.plan.Q.Name))
		}
		row := e.pre.Row(int(rows[0]))
		it.assign[e.step.removedID] = row[e.step.removedCol]
	}
	it.extended = true
}

// Materialize drains a fresh iterator into a relation over Plan.SVars
// (sorted variable order), deduplicated by construction.
func (p *Plan) Materialize() *database.Relation {
	out := database.NewRelation(p.Q.Name, len(p.SVars))
	it := p.Iterator()
	for it.Next() {
		out.Append(it.STuple()...)
	}
	return out
}

// MaterializeHead drains a fresh iterator into a relation over the query
// head. When some head variable lies outside S, each answer is extended
// first.
func (p *Plan) MaterializeHead() *database.Relation {
	s := cq.NewVarSet(p.SVars...)
	needExtend := false
	for _, v := range p.Q.Head {
		if !s[v] {
			needExtend = true
		}
	}
	out := database.NewRelation(p.Q.Name, len(p.Q.Head))
	it := p.Iterator()
	for it.Next() {
		if needExtend {
			it.Extend()
		}
		out.Append(it.HeadTuple()...)
	}
	if needExtend {
		// Distinct S-tuples may project to equal head tuples only when
		// head ⊄ S; the enumeration itself is duplicate-free over S.
		out.Dedup()
	}
	return out
}
