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
// each position holds the candidate rows matching the ancestor assignment
// (a hash lookup), and after the full reduction every candidate extends to
// a complete answer, so no backtracking occurs.
type Iterator struct {
	plan *Plan
	// rows holds the candidate row ids per DFS position below the root;
	// the root position's candidates are the integers [0, roots) and
	// cursors[0] is the root row id itself, so an iterator costs nothing
	// per root row before its first answer.
	rows      [][]int32
	roots     int
	cursors   []int
	assign    []database.Value
	started   bool
	exhausted bool
	extended  bool
	keyBuf    []database.Value
	// Backtracks counts DFS positions that produced no candidates; after a
	// full reduction this stays 0 and tests assert it.
	Backtracks int
}

// Iterator returns a fresh iterator over the plan's answers.
func (p *Plan) Iterator() *Iterator {
	n := len(p.order)
	roots := 0
	if n > 0 {
		roots = p.tops[p.order[0]].rel.Len()
	}
	return &Iterator{
		plan:    p,
		roots:   roots,
		rows:    make([][]int32, n),
		cursors: make([]int, n),
		assign:  make([]database.Value, len(p.varName)),
	}
}

// Next advances to the next S-assignment, reporting false on exhaustion.
func (it *Iterator) Next() bool {
	if it.exhausted {
		return false
	}
	it.extended = false
	n := len(it.plan.order)
	var k int
	if !it.started {
		it.started = true
		k = 0
		it.fill(0)
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
		if it.cursors[k] < it.candidates(k) {
			it.bind(k, it.row(k))
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

// fill computes the candidate rows at DFS position k for the current
// ancestor assignment and resets its cursor. Position 0 is the join tree's
// single root; every other top carries an index on the columns it shares
// with its parent (zero columns for a cross product).
func (it *Iterator) fill(k int) {
	it.cursors[k] = 0
	if k == 0 {
		return
	}
	t := &it.plan.tops[it.plan.order[k]]
	it.keyBuf = it.keyBuf[:0]
	for _, vid := range t.keyVarIDs {
		it.keyBuf = append(it.keyBuf, it.assign[vid])
	}
	it.rows[k] = t.index.Lookup(it.keyBuf)
	if len(it.rows[k]) == 0 {
		it.Backtracks++
	}
}

// candidates is the number of candidate rows at DFS position k.
func (it *Iterator) candidates(k int) int {
	if k == 0 {
		return it.roots
	}
	return len(it.rows[k])
}

// row is the id of DFS position k's current candidate row.
func (it *Iterator) row(k int) int {
	if k == 0 {
		return it.cursors[0]
	}
	return int(it.rows[k][it.cursors[k]])
}

// bind writes row id of DFS position k's top into the assignment.
func (it *Iterator) bind(k, id int) {
	t := &it.plan.tops[it.plan.order[k]]
	if t.rel.Arity() == 0 {
		return
	}
	row := t.rel.Row(id)
	for c, vid := range t.varIDs {
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
	out := make(database.Tuple, len(it.plan.SVars))
	for i, v := range it.plan.SVars {
		out[i] = it.assign[it.plan.varID[v]]
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
	for i := len(it.plan.log) - 1; i >= 0; i-- {
		e := &it.plan.log[i]
		if e.kind != 'p' {
			continue
		}
		it.keyBuf = it.keyBuf[:0]
		for _, vid := range e.keyVarIDs {
			it.keyBuf = append(it.keyBuf, it.assign[vid])
		}
		rows := e.extension().Lookup(it.keyBuf)
		if len(rows) == 0 {
			panic(fmt.Sprintf("yannakakis: internal error: no extension for %s in %s",
				e.removedVar, it.plan.Q.Name))
		}
		row := e.pre.Row(int(rows[0]))
		it.assign[it.plan.varID[e.removedVar]] = row[e.removedCol]
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

// Decide reports whether Q(I) is non-empty, in linear time for an acyclic
// query (Theorem 3's Decide⟨Q⟩ for the tractable side).
func Decide(q *cq.CQ, inst *database.Instance) (bool, error) {
	// Deciding non-emptiness never needs the head: use S = ∅, which is
	// connex for every acyclic query.
	plan, err := Prepare(q, inst, cq.NewVarSet())
	if err != nil {
		return false, err
	}
	return plan.Iterator().Next(), nil
}
