// Package baseline provides a straightforward join-and-deduplicate
// evaluator for CQs and UCQs. It is the comparator that the paper's
// DelayClin results are implicitly measured against: it computes all
// homomorphisms by a nested index join and deduplicates head projections,
// so its running time grows with the number of homomorphisms rather than
// the number of answers, and it has no delay guarantee.
//
// The package doubles as the test oracle for the constant-delay engine.
package baseline

import (
	"context"
	"fmt"

	"repro/internal/cq"
	"repro/internal/database"
)

// EvalCQ computes the answer relation of q over inst (head projections of
// all homomorphisms, deduplicated). Virtual atoms participate like regular
// atoms and must have relations in the instance.
func EvalCQ(q *cq.CQ, inst *database.Instance) (*database.Relation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	answers := database.NewKeySet(len(q.Head))
	if err := evalInto(q, inst, answers); err != nil {
		return nil, err
	}
	return answers.Relation(q.Name), nil
}

// evalInto adds the head projection of every homomorphism of q to answers.
func evalInto(q *cq.CQ, inst *database.Instance, answers *database.KeySet) error {
	plan, err := newJoinPlan(q, inst)
	if err != nil {
		return err
	}
	head := make(database.Tuple, len(q.Head))
	plan.run(func(assign map[cq.Variable]database.Value) bool {
		for i, v := range q.Head {
			head[i] = assign[v]
		}
		answers.Add(head)
		return true
	})
	return nil
}

// EvalUCQ computes the union of the member CQs' answers, deduplicated
// positionally.
func EvalUCQ(u *cq.UCQ, inst *database.Instance) (*database.Relation, error) {
	return EvalUCQCtx(context.Background(), u, inst)
}

// EvalUCQCtx is EvalUCQ with cooperative cancellation: ctx is checked
// before each member CQ's evaluation, so a caller that goes away mid-union
// aborts with ctx's error after at most one member's worth of work instead
// of materializing the whole answer set for nobody. Member evaluation
// itself is not interrupted (a single CQ's join runs to completion).
//
// Every member's heads go into one key set, whose keys are the answer
// relation: each answer is stored once, in first-occurrence order.
func EvalUCQCtx(ctx context.Context, u *cq.UCQ, inst *database.Instance) (*database.Relation, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	answers := database.NewKeySet(u.Arity())
	for _, q := range u.CQs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := evalInto(q, inst, answers); err != nil {
			return nil, err
		}
	}
	return answers.Relation("union"), nil
}

// joinPlan is a static-order nested index join: atom i is indexed on the
// positions bound by atoms 0..i-1.
type joinPlan struct {
	q     *cq.CQ
	atoms []plannedAtom
}

type plannedAtom struct {
	atom cq.Atom
	rel  *database.Relation
	// boundCols/boundVars are the columns whose variables are bound when
	// this atom is reached; index is on those columns. checkCols pairs
	// repeated occurrences within the atom: (col, firstCol).
	boundCols []int
	boundVars []cq.Variable
	index     *database.Index
	// newVars lists (col, var) pairs bound by this atom.
	newCols []int
	newVars []cq.Variable
	// eqPairs lists (col, earlierCol) equality constraints from repeated
	// variables inside the atom.
	eqPairs [][2]int
}

func newJoinPlan(q *cq.CQ, inst *database.Instance) (*joinPlan, error) {
	p := &joinPlan{q: q}
	bound := make(cq.VarSet)
	for _, a := range q.Atoms {
		rel := inst.Relation(a.Rel)
		if rel == nil {
			return nil, fmt.Errorf("baseline: no relation %q in the instance", a.Rel)
		}
		if rel.Arity() != len(a.Vars) {
			return nil, fmt.Errorf("baseline: atom %s has arity %d but relation has arity %d",
				a, len(a.Vars), rel.Arity())
		}
		pa := plannedAtom{atom: a, rel: rel}
		firstCol := make(map[cq.Variable]int)
		for c, v := range a.Vars {
			if fc, ok := firstCol[v]; ok {
				pa.eqPairs = append(pa.eqPairs, [2]int{c, fc})
				continue
			}
			firstCol[v] = c
			if bound[v] {
				pa.boundCols = append(pa.boundCols, c)
				pa.boundVars = append(pa.boundVars, v)
			} else {
				pa.newCols = append(pa.newCols, c)
				pa.newVars = append(pa.newVars, v)
			}
		}
		pa.index = rel.BuildIndex(pa.boundCols)
		for _, v := range pa.newVars {
			bound.Add(v)
		}
		p.atoms = append(p.atoms, pa)
	}
	return p, nil
}

// run invokes emit for every homomorphism; emit returns false to stop.
func (p *joinPlan) run(emit func(map[cq.Variable]database.Value) bool) {
	assign := make(map[cq.Variable]database.Value)
	var key database.Tuple
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(p.atoms) {
			return emit(assign)
		}
		pa := &p.atoms[k]
		key = key[:0]
		for _, v := range pa.boundVars {
			key = append(key, assign[v])
		}
		for _, ri := range pa.index.Lookup(key) {
			row := pa.rel.Row(int(ri))
			ok := true
			for _, eq := range pa.eqPairs {
				if row[eq[0]] != row[eq[1]] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for i, c := range pa.newCols {
				assign[pa.newVars[i]] = row[c]
			}
			if !rec(k + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}
