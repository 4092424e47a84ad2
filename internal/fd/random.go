package fd

import (
	"math/rand"

	"repro/internal/cq"
	"repro/internal/database"
)

// RandomSet draws a random set of functional dependencies over the
// union's schema: each relation of arity ≥ 2 carries an FD with
// probability ~1/2 (and occasionally a second one), with a random
// determinant set and target position. Paired with Enforce it feeds the
// FD-aware arm of the cross-engine equivalence harness, exercising the
// Remark 2 machinery: free-closure computation, FD-extension, and
// enumeration through the extended query.
func RandomSet(rng *rand.Rand, u *cq.UCQ) *Set {
	var fds []FD
	for _, d := range u.Schema() {
		if d.Arity < 2 {
			continue
		}
		n := 0
		switch rng.Intn(4) {
		case 0, 1:
			n = 1
		case 2:
			n = 2
		}
		for i := 0; i < n; i++ {
			to := rng.Intn(d.Arity)
			var from []int
			for c := 0; c < d.Arity; c++ {
				if c != to && (len(from) == 0 || rng.Intn(2) == 0) {
					from = append(from, c)
				}
			}
			fds = append(fds, FD{Rel: d.Name, From: from, To: to})
		}
	}
	set, err := NewSet(fds...)
	if err != nil {
		// By construction determinants are non-empty and positions valid.
		panic(err)
	}
	return set
}

// Enforce returns a copy of inst in which every FD of the set holds: for
// each FD, rows disagreeing with the first-seen target value of their
// determinant are dropped. Dropping rows never introduces a violation of
// another FD, so one pass per FD suffices and the result always satisfies
// the whole set. Relations without FDs are shared, not copied.
func (s *Set) Enforce(inst *database.Instance) *database.Instance {
	out := inst.ShallowClone()
	for rel, relFDs := range s.byRel {
		r := inst.Relation(rel)
		if r == nil {
			continue
		}
		for _, f := range relFDs {
			if f.checkArity(r.Arity()) != nil {
				continue
			}
			kept := database.NewRelation(r.Name, r.Arity())
			f.eachRow(r, func(row database.Tuple, first database.Value) bool {
				if first == row[f.To] {
					kept.Append(row...)
				}
				return true
			})
			r = kept
		}
		out.AddRelation(r)
	}
	return out
}
