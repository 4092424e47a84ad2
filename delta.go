package ucq

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/baseline"
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
// O(1) per candidate — no re-enumeration of the old answers. Naive plans
// have neither, and take the difference directly: both versions through
// the naive evaluator, Q(to) filtered through a key set over Q(from). The
// catalog's bounded append log provides the delta windows; when it has
// been compacted past the requested window the API reports
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
//
// A certified plan evaluates only what the appends touched. A naive plan
// costs two naive evaluations, one per version, and holds both answer
// relations and a key set over the old one until it returns.
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
			old, err = p.compiled.Bind(ctx, fromInst)
			if err != nil {
				return err
			}
		}
		_, err = delta.Candidates(ctx, p.compiled, toInst, deltas, func(t database.Tuple) bool {
			if old.ContainsAnswer(t) {
				return true
			}
			return yield(t)
		})
		return err
	}
	oldRel, err := baseline.EvalUCQCtx(ctx, p.Evaluated, fromInst)
	if err != nil {
		return err
	}
	newRel, err := baseline.EvalUCQCtx(ctx, p.Evaluated, toInst)
	if err != nil {
		return err
	}
	cols := make([]int, newRel.Arity())
	for c := range cols {
		cols[c] = c
	}
	old := oldRel.BuildKeySet(cols, nil)
	for i, n := 0, newRel.Len(); i < n; i++ {
		if t := newRel.Row(i); !old.Contains(t) && !yield(t) {
			return nil
		}
	}
	return nil
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
