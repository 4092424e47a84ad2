package ucq

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/database"
	"repro/internal/delta"
)

// This file is the incremental-maintenance surface: UCQs are monotone
// (append-only changes can only add answers), so keeping a live answer set
// current across dataset versions reduces to enumerating Q(to) \ Q(from).
// Semi-naive delta evaluation (internal/delta) finds a small candidate
// superset of the difference from the appended rows alone, and for
// certified plans the Theorem 12 structure supplies a constant-time
// old-version membership test (the CDY head indexes), so the filter costs
// O(1) per candidate — no re-enumeration of the old answers. The catalog's
// bounded append log provides the delta windows; when it has been
// compacted past the requested window the API reports
// ErrDeltaUnavailable and the caller resyncs from a full evaluation.

// ErrDeltaUnavailable reports that the dataset's retained append log does
// not cover the requested version window — it was compacted, cleared by a
// Replace, or the plan was not bound through a catalog dataset. The caller
// must resync: re-bind at the head version and enumerate the full answer
// set.
var ErrDeltaUnavailable = errors.New("ucq: append log does not cover the delta window; resync from a full evaluation")

// DeltaAnswers returns the answers the dataset's appends added between
// versions from and to: exactly Q(to) \ Q(from), each answer once. The
// plan must have been bound through a catalog dataset (BindDataset);
// typically it is the plan bound at version from, in which case its own
// bound state serves as the old-membership filter. Binding at a different
// version is allowed as long as the append log still covers from — the
// old state is then rebound internally from the logged snapshot.
//
// It fails with ErrDeltaUnavailable when the log no longer covers
// (from, to]; see Plan.DeltaAnswersContext for the streaming form.
func (p *Plan) DeltaAnswers(from, to Version) ([]Tuple, error) {
	var out []Tuple
	err := p.DeltaAnswersContext(nil, from, to, func(t Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeltaAnswersContext streams the answers added between versions from and
// to — exactly Q(to) \ Q(from), each once — into yield. Yielded tuples may
// be transient views into enumeration state: copy (Tuple.Clone) before
// retaining one past the callback. A false return from yield stops the
// enumeration early without error. A nil ctx falls back to the plan's
// binding context.
func (p *Plan) DeltaAnswersContext(ctx context.Context, from, to Version, yield func(Tuple) bool) error {
	ctx = p.deltaCtx(ctx)
	if from == to {
		return nil
	}
	fromInst, toInst, deltas, err := p.deltaWindow(from, to)
	if err != nil {
		return err
	}
	if p.Mode == ConstantDelay {
		old := p.union
		if from != p.dsVersion || old == nil {
			// Resuming against a window start the plan was not bound at:
			// rebuild the old-version bound state from the logged snapshot.
			old, err = core.NewUnionPlanCtx(ctx, p.Evaluated, p.Cert, fromInst)
			if err != nil {
				return err
			}
		}
		_, err = delta.Candidates(ctx, p.Evaluated, p.Cert, toInst, deltas, func(t database.Tuple) bool {
			if old.ContainsAnswer(t) {
				return true
			}
			return yield(t)
		})
		return err
	}
	// Naive mode has no constant-time membership test; materialize the old
	// answer set once and filter through it.
	oldRel, err := baseline.EvalUCQCtx(ctx, p.Evaluated, fromInst)
	if err != nil {
		return err
	}
	oldSet := database.NewTupleSet(oldRel.Len())
	for i, n := 0, oldRel.Len(); i < n; i++ {
		oldSet.Insert(oldRel.Row(i))
	}
	_, err = delta.CandidatesNaive(ctx, p.Evaluated, toInst, deltas, func(t database.Tuple) bool {
		if oldSet.Contains(t) {
			return true
		}
		return yield(t)
	})
	return err
}

// DeltaCandidatesContext streams the semi-naive candidate answers of the
// window (from, to] — a superset of Q(to) \ Q(from) and a subset of Q(to),
// each distinct candidate once — without the old-version membership
// filter. Consumers that already maintain the set of answers they have
// seen (fed from the initial enumeration) dedup against it directly, which
// is how naive-mode subscriptions avoid re-materializing the old answer
// set per append. Tuple lifetime and early-stop semantics
// match DeltaAnswersContext.
func (p *Plan) DeltaCandidatesContext(ctx context.Context, from, to Version, yield func(Tuple) bool) error {
	ctx = p.deltaCtx(ctx)
	if from == to {
		return nil
	}
	_, toInst, deltas, err := p.deltaWindow(from, to)
	if err != nil {
		return err
	}
	if p.Mode == ConstantDelay {
		_, err = delta.Candidates(ctx, p.Evaluated, p.Cert, toInst, deltas, yield)
		return err
	}
	_, err = delta.CandidatesNaive(ctx, p.Evaluated, toInst, deltas, yield)
	return err
}

// deltaCtx resolves the effective context like AnswersContext does.
func (p *Plan) deltaCtx(ctx context.Context) context.Context {
	if ctx != nil {
		return ctx
	}
	if p.ctx != nil {
		return p.ctx
	}
	return context.Background()
}

// deltaWindow fetches the (from, to] window from the bound dataset's
// append log, mapping every unavailability onto ErrDeltaUnavailable.
func (p *Plan) deltaWindow(from, to Version) (fromInst, toInst *Instance, deltas map[string]*database.Relation, err error) {
	if from > to {
		return nil, nil, nil, fmt.Errorf("ucq: delta window [%d, %d] runs backwards", from, to)
	}
	if p.ds == nil {
		return nil, nil, nil, ErrDeltaUnavailable
	}
	fromInst, toInst, deltas, ok := p.ds.DeltasBetween(from, to)
	if !ok {
		return nil, nil, nil, ErrDeltaUnavailable
	}
	return fromInst, toInst, deltas, nil
}
