// Package delta implements semi-naive incremental maintenance of UCQ
// answers under append-only dataset changes.
//
// The union of conjunctive queries is monotone — appending tuples can only
// add answers, never retract one — so maintaining a live answer set
// reduces to computing Q(to) \ Q(from) for consecutive catalog versions.
// Every answer in that difference uses at least one appended tuple in some
// atom of its derivation, which gives the classic semi-naive rewriting:
// for each relation R touched by the append, evaluate the query over the
// new instance with R replaced by just its delta rows (the overlay). The
// union of the overlay answer sets is a superset of the new answers and a
// subset of Q(to); filtering it through the version-`from` plan's
// constant-time membership test (the CDY head indexes of a certified
// Theorem 12 plan) yields exactly the difference.
//
// The package serves certified plans only. A naive plan has no certificate
// to evaluate overlays with and no constant-time membership test; it takes
// the difference of two naive evaluations instead (Plan.DeltaAnswersContext
// in the root package).
//
// One correctness wrinkle: when a CQ joins a touched relation with itself,
// the overlay substitutes *every* occurrence, so an answer pairing a new
// tuple at one occurrence with an old tuple at another is missed.
// Candidates detects that shape and degrades to one full evaluation at
// `to` — still exact after the caller's old-membership filter, just no
// longer incremental.
package delta

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/enumeration"
)

// Touched returns the delta'd relation names the query actually
// references, sorted. Relations the query never mentions cannot change its
// answers, and empty deltas contribute nothing, so both are dropped.
func Touched(u *cq.UCQ, deltas map[string]*database.Relation) []string {
	refs := make(map[string]struct{})
	for _, q := range u.CQs {
		for _, a := range q.Atoms {
			if !a.Virtual {
				refs[a.Rel] = struct{}{}
			}
		}
	}
	var names []string
	for name, rel := range deltas {
		if rel == nil || rel.Len() == 0 {
			continue
		}
		if _, ok := refs[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// HasSelfJoinOn reports whether some CQ of u references a touched relation
// in two or more atoms. The per-relation overlay replaces every occurrence
// of the relation at once, so such a CQ's new answers combining a delta
// tuple with an old tuple of the same relation would be missed; the
// callers fall back to full evaluation in that case.
func HasSelfJoinOn(u *cq.UCQ, touched []string) bool {
	if len(touched) == 0 {
		return false
	}
	set := make(map[string]struct{}, len(touched))
	for _, name := range touched {
		set[name] = struct{}{}
	}
	for _, q := range u.CQs {
		seen := make(map[string]bool)
		for _, a := range q.Atoms {
			if a.Virtual {
				continue
			}
			if _, t := set[a.Rel]; !t {
				continue
			}
			if seen[a.Rel] {
				return true
			}
			seen[a.Rel] = true
		}
	}
	return false
}

// overlay returns toInst with the named relation replaced by its delta
// rows. The instances share every other relation (copy-on-write snapshots
// make this safe); only the relation header is fresh.
func overlay(toInst *database.Instance, name string, drel *database.Relation) *database.Instance {
	inst := toInst.ShallowClone()
	if drel.Name != name {
		drel = drel.Clone()
		drel.Name = name
	}
	inst.AddRelation(drel)
	return inst
}

// Candidates runs certified semi-naive delta evaluation and yields each
// distinct candidate answer once. The yielded set is a superset of
// Q(to)\Q(from) and a subset of Q(to): the caller filters candidates by
// membership in the version-`from` plan (core.UnionPlan.ContainsAnswer).
// Yielded tuples may be transient views — copy before retaining. A false
// return from yield stops the enumeration early without error.
//
// When a CQ self-joins a touched relation, Candidates evaluates the full
// plan at `to` instead of the overlays (exact, not incremental); the
// full return value reports which path ran so callers can account for it.
func Candidates(ctx context.Context, u *cq.UCQ, cert *core.Certificate, toInst *database.Instance, deltas map[string]*database.Relation, yield func(database.Tuple) bool) (full bool, err error) {
	touched := Touched(u, deltas)
	if len(touched) == 0 {
		return false, nil
	}
	if HasSelfJoinOn(u, touched) {
		plan, err := core.NewUnionPlanCtx(ctx, u, cert, toInst)
		if err != nil {
			return true, err
		}
		return true, drain(ctx, plan.Answers(ctx, nil), nil, yield)
	}
	seen := database.NewKeySet(u.Arity())
	for _, name := range touched {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		plan, err := core.NewUnionPlanCtx(ctx, u, cert, overlay(toInst, name, deltas[name]))
		if err != nil {
			return false, err
		}
		it := plan.Answers(ctx, map[string]struct{}{name: {}})
		if err := drain(ctx, it, seen, yield); err != nil {
			return false, err
		}
	}
	return false, nil
}

// drain pushes it's tuples through seen-dedup (nil seen = no dedup) into
// yield. The stream itself stops within one batch of ctx being cancelled,
// silently — so its end is only a completed drain if ctx is still live.
func drain(ctx context.Context, it *enumeration.Union, seen *database.KeySet, yield func(database.Tuple) bool) error {
	for {
		t, ok := it.Next()
		if !ok {
			return ctx.Err()
		}
		if seen != nil {
			if _, fresh := seen.Add(t); !fresh {
				continue
			}
		}
		if !yield(t) {
			return nil
		}
	}
}
