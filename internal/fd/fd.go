// Package fd implements the functional-dependency machinery referenced by
// Remark 2 of the paper: when the schema carries functional dependencies,
// some CQs that are intractable in general become tractable, because the
// FD-extension of the query (Carmeli & Kröll, "Enumeration Complexity of
// Conjunctive Queries with Functional Dependencies", ICDT 2018) may be
// free-connex even when the query itself is not.
//
// An FD R: X → y (X a set of positions of R, y a position) asserts that in
// every relation instance, tuples agreeing on X agree on y. For a query Q,
// the free closure is the least superset F of free(Q) such that for every
// atom R(v⃗) and FD R: X → y with v⃗[X] ⊆ F, also v⃗[y] ∈ F. Extending the
// head by the closure preserves enumeration complexity: on instances
// satisfying the FDs, the implied variables are functions of the free
// variables, so Q⁺'s answers project bijectively onto Q's.
//
// Remark 2: for a UCQ over a schema with FDs, first FD-extend every CQ,
// then look for union extensions. This package provides the CQ-level
// machinery (closure, extension, validation, enumeration); the union-level
// combination is exposed through EnumerateCQ and the classification helper.
package fd

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/hypergraph"
	"repro/internal/yannakakis"
)

// FD is a functional dependency R: From → To over positions (0-based) of
// relation R.
type FD struct {
	Rel  string
	From []int
	To   int
}

// String renders the FD as R: 0,1 -> 2.
func (f FD) String() string {
	s := f.Rel + ": "
	for i, c := range f.From {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", c)
	}
	return s + fmt.Sprintf(" -> %d", f.To)
}

// Set is a collection of FDs, indexed by relation.
type Set struct {
	byRel map[string][]FD
}

// NewSet builds an FD set, validating positions are non-negative.
func NewSet(fds ...FD) (*Set, error) {
	s := &Set{byRel: make(map[string][]FD)}
	for _, f := range fds {
		if f.Rel == "" {
			return nil, fmt.Errorf("fd: empty relation name")
		}
		if f.To < 0 {
			return nil, fmt.Errorf("fd: negative target position in %s", f)
		}
		if len(f.From) == 0 {
			return nil, fmt.Errorf("fd: %s has an empty determinant", f)
		}
		for _, c := range f.From {
			if c < 0 {
				return nil, fmt.Errorf("fd: negative source position in %s", f)
			}
		}
		s.byRel[f.Rel] = append(s.byRel[f.Rel], f)
	}
	return s, nil
}

// MustSet is NewSet panicking on error.
func MustSet(fds ...FD) *Set {
	s, err := NewSet(fds...)
	if err != nil {
		panic(err)
	}
	return s
}

// All returns every FD in the set.
func (s *Set) All() []FD {
	var out []FD
	for _, fds := range s.byRel {
		out = append(out, fds...)
	}
	return out
}

// checkArity reports an FD whose positions do not fit a relation of arity a.
func (f FD) checkArity(a int) error {
	if f.To >= a {
		return fmt.Errorf("fd: %s targets position %d of arity-%d relation", f, f.To, a)
	}
	for _, c := range f.From {
		if c >= a {
			return fmt.Errorf("fd: %s reads position %d of arity-%d relation", f, c, a)
		}
	}
	return nil
}

// eachRow passes r's rows in order to visit, each with the target value of
// the first row sharing its determinant (its own, for that first row);
// visit returns false to stop. f must pass checkArity for r.
func (f FD) eachRow(r *database.Relation, visit func(row database.Tuple, first database.Value) bool) {
	seen := database.NewKeySet(len(f.From))
	targets := make([]database.Value, 0, r.Len())
	key := make(database.Tuple, len(f.From))
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		for j, c := range f.From {
			key[j] = row[c]
		}
		e, fresh := seen.Add(key)
		if fresh {
			targets = append(targets, row[f.To])
		}
		if !visit(row, targets[e]) {
			return
		}
	}
}

// Validate checks that every FD's positions fit its relation's arity as
// used in the query.
func (s *Set) Validate(u *cq.UCQ) error {
	arity := make(map[string]int)
	for _, d := range u.Schema() {
		arity[d.Name] = d.Arity
	}
	for rel, fds := range s.byRel {
		a, ok := arity[rel]
		if !ok {
			continue // FDs on unused relations are harmless
		}
		for _, f := range fds {
			if err := f.checkArity(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// Holds reports whether the instance satisfies every FD of the set (for
// relations present in the instance). An FD that does not fit its
// relation's arity is an error, whether or not the relation has rows.
func (s *Set) Holds(inst *database.Instance) error {
	for rel, fds := range s.byRel {
		r := inst.Relation(rel)
		if r == nil {
			continue
		}
		for _, f := range fds {
			if err := f.checkArity(r.Arity()); err != nil {
				return err
			}
			var err error
			f.eachRow(r, func(row database.Tuple, first database.Value) bool {
				if first != row[f.To] {
					err = fmt.Errorf("fd: %s violated by rows agreeing on the determinant with targets %v and %v",
						f, first, row[f.To])
				}
				return err == nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// FreeClosure computes the least superset of free(Q) closed under the FDs:
// if an atom's determinant variables are all in the set, the determined
// variable joins it.
func (s *Set) FreeClosure(q *cq.CQ) cq.VarSet {
	closure := q.Free()
	for changed := true; changed; {
		changed = false
		for _, a := range q.Atoms {
			for _, f := range s.byRel[a.Rel] {
				if f.To >= len(a.Vars) {
					continue
				}
				all := true
				for _, c := range f.From {
					if c >= len(a.Vars) || !closure[a.Vars[c]] {
						all = false
						break
					}
				}
				if all && !closure[a.Vars[f.To]] {
					closure[a.Vars[f.To]] = true
					changed = true
				}
			}
		}
	}
	return closure
}

// ExtendCQ returns the FD-extension Q⁺: the same body with the head
// extended by the free closure (new variables appended in sorted order).
// On FD-satisfying instances, Q⁺'s answers are in bijection with Q's.
func (s *Set) ExtendCQ(q *cq.CQ) *cq.CQ {
	closure := s.FreeClosure(q)
	out := q.Clone()
	have := q.Free()
	for _, v := range closure.Sorted() {
		if !have[v] {
			out.Head = append(out.Head, v)
		}
	}
	return out
}

// IsFDFreeConnex reports whether the FD-extension of q is free-connex —
// the tractability condition of the FD-aware dichotomy that Remark 2
// builds on.
func (s *Set) IsFDFreeConnex(q *cq.CQ) bool {
	ext := s.ExtendCQ(q)
	return hypergraph.FromCQ(ext).IsSConnex(ext.Free())
}

// EnumerateCQ enumerates q over an FD-satisfying instance through its
// FD-extension: the extension is evaluated by the constant-delay engine
// and every answer is projected back onto q's head. The projection is
// bijective under the FDs, so the stream is duplicate-free with constant
// delay. It errors when the FD-extension is not free-connex or the
// instance violates an FD.
func (s *Set) EnumerateCQ(q *cq.CQ, inst *database.Instance) (enumeration.Iterator, error) {
	if err := s.Holds(inst); err != nil {
		return nil, err
	}
	sh, err := yannakakis.Compile(s.ExtendCQ(q), nil)
	if err != nil {
		return nil, fmt.Errorf("fd: FD-extension is not enumerable: %w", err)
	}
	plan, err := sh.Bind(inst)
	if err != nil {
		return nil, fmt.Errorf("fd: FD-extension is not enumerable: %w", err)
	}
	it := plan.Iterator()
	headLen := len(q.Head)
	return enumeration.Func(func() (database.Tuple, bool) {
		if !it.Next() {
			return nil, false
		}
		full := it.HeadTuple()
		return full[:headLen], true
	}), nil
}
