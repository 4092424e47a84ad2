package ucq

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"iter"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/homomorphism"
	"repro/internal/yannakakis"
)

// Mode states which evaluation strategy a plan uses.
type Mode int

const (
	// ConstantDelay: the query was certified free-connex; enumeration runs
	// with linear preprocessing and constant delay (Theorem 12).
	ConstantDelay Mode = iota
	// Naive: no certificate was found; evaluation joins and deduplicates
	// with no delay guarantee.
	Naive
)

// String renders the mode.
func (m Mode) String() string {
	if m == ConstantDelay {
		return "constant-delay"
	}
	return "naive"
}

// PlanOptions tunes plan construction.
type PlanOptions struct {
	// ForceNaive skips certification and uses the naive evaluator.
	ForceNaive bool
}

// Plan is a prepared evaluation of one UCQ over one instance.
type Plan struct {
	// Query is the evaluated union as given.
	Query *UCQ
	// Evaluated is the non-redundant union actually planned (equal to
	// Query unless containment pruning removed CQs).
	Evaluated *UCQ
	// Mode states the strategy in use.
	Mode Mode
	// Cert is the free-connexity certificate (ConstantDelay mode only).
	Cert *Certificate

	union *core.UnionPlan
	inst  *database.Instance
	// ctx is the binding context from BindContext: the default context of
	// every Answers stream this plan produces.
	ctx context.Context
	// Dataset provenance (zero-valued for inline-instance binds): the
	// snapshot the plan was bound against and whether the per-instance
	// preprocessing was served from the catalog's bind cache.
	dsName    string
	dsVersion uint64
	bindHit   bool
	// ds is the catalog dataset the plan was bound against (nil for
	// inline-instance and anonymous binds); the delta-maintenance API
	// reads the append log through it.
	ds *Dataset
}

// DatasetName returns the name of the dataset the plan was bound against,
// or "" for an inline-instance bind (NewPlan, Bind, BindContext).
func (p *Plan) DatasetName() string { return p.dsName }

// DatasetVersion returns the version of the dataset snapshot the plan was
// bound against, or 0 for an inline-instance bind. The plan enumerates
// that snapshot even if the dataset is replaced afterwards.
func (p *Plan) DatasetVersion() uint64 { return p.dsVersion }

// BindCacheHit reports whether the plan's per-instance preprocessing was
// served from the catalog's bind cache rather than computed (BindDataset
// only; inline binds never hit the cache).
func (p *Plan) BindCacheHit() bool { return p.bindHit }

// PreparedQuery is the instance-independent half of a plan: the outcome of
// containment-based redundancy removal and the free-connexity certificate
// search. All of it depends only on the query (and ForceNaive), never on
// the data, so a PreparedQuery can be built once and bound to many
// instances — this is what a long-lived server caches per (query, schema)
// to amortize the Theorem 12 certificate search across requests, while the
// per-instance preprocessing happens in Bind.
//
// A PreparedQuery is immutable after Prepare returns and is safe for
// concurrent use: Bind and BindDataset may be called from any number of
// goroutines simultaneously.
type PreparedQuery struct {
	// Query is the union as given to Prepare.
	Query *UCQ
	// Evaluated is the non-redundant union actually planned.
	Evaluated *UCQ
	// Mode states the strategy bindings of this query will use.
	Mode Mode
	// Cert is the free-connexity certificate (ConstantDelay mode only).
	Cert *Certificate

	// fingerprint identifies the preparation inputs (query text plus
	// ForceNaive); see Fingerprint.
	fingerprint string
}

// Fingerprint returns a stable identifier of the preparation inputs: the
// query as given plus ForceNaive, the one option that shapes preparation.
// Two Prepare calls with the same inputs produce the same fingerprint, so
// bound plans cached under it (the catalog's bind cache) are
// interchangeable across PreparedQuery values.
func (pq *PreparedQuery) Fingerprint() string { return pq.fingerprint }

// fingerprintQuery hashes the preparation inputs.
func fingerprintQuery(u *UCQ, opts *PlanOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "force-naive=%v\n%s", opts.ForceNaive, u.String())
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Prepare runs the instance-independent part of planning: it validates the
// query, removes redundant (contained) CQs, and searches for a
// free-connexity certificate, deciding between constant-delay and naive
// evaluation. The result is bound to concrete instances with Bind.
func Prepare(u *UCQ, opts *PlanOptions) (*PreparedQuery, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &PlanOptions{}
	}
	work := homomorphism.RemoveRedundant(u)
	pq := &PreparedQuery{Query: u, Evaluated: work, Mode: Naive,
		fingerprint: fingerprintQuery(u, opts)}
	if !opts.ForceNaive {
		if cert, ok := core.FindCertificate(work, nil); ok {
			pq.Mode = ConstantDelay
			pq.Cert = cert
		}
	}
	return pq, nil
}

// Bind attaches the prepared query to an instance, running the per-instance
// Theorem 12 preprocessing (constant-delay mode) or validating the schema
// (naive mode).
//
// A constant-delay plan is a snapshot of the instance as bound. It may
// share row storage with inst's relations instead of copying it, which is
// safe because stored rows are never rewritten: rows appended to a relation
// after Bind are invisible to the plan — to its answers, its counts and its
// membership probes — and a later Bind sees them. Appending while a Bind of
// the same relation is still running is a data race, as it always was. A
// naive plan reads inst at enumeration time and promises no snapshot.
func (pq *PreparedQuery) Bind(inst *Instance) (*Plan, error) {
	return pq.BindContext(context.Background(), inst)
}

// BindContext is Bind with end-to-end cancellation: ctx is checked during
// the per-instance Theorem 12 preprocessing (a cancelled bind aborts
// between extensions with ctx's error) and becomes the default context of
// every Answers stream the plan produces. A nil ctx means
// context.Background().
func (pq *PreparedQuery) BindContext(ctx context.Context, inst *Instance) (*Plan, error) {
	// The inline-instance API is a thin wrapper over a one-shot anonymous
	// dataset: same bind path as BindDataset, no name, no bind cache.
	return pq.BindDatasetContext(ctx, anonymousDataset(inst))
}

// boundQuery is the per-instance half of a plan — the outcome of binding a
// prepared query to one immutable instance. In constant-delay mode it
// holds the Theorem 12 union pipeline; in naive mode it only records that
// the schema validated. A boundQuery is read-only after bindInstance
// returns and safe to share across concurrent plans, which is what the
// catalog's bind cache does.
type boundQuery struct {
	union *core.UnionPlan // nil in naive mode
}

// bindInstance runs the per-instance half of planning: the Theorem 12
// preprocessing in constant-delay mode, or schema validation in naive
// mode. ctx aborts a still-running preprocessing between extensions.
func (pq *PreparedQuery) bindInstance(ctx context.Context, inst *Instance) (*boundQuery, error) {
	if pq.Mode == ConstantDelay {
		up, err := core.NewUnionPlanCtx(ctx, pq.Evaluated, pq.Cert, inst)
		if err != nil {
			return nil, err
		}
		return &boundQuery{union: up}, nil
	}
	// Validate relations up front so Iterator can't fail later.
	for _, d := range pq.Query.Schema() {
		r := inst.Relation(d.Name)
		if r == nil {
			return nil, fmt.Errorf("ucq: no relation %q in the instance", d.Name)
		}
		if r.Arity() != d.Arity {
			return nil, fmt.Errorf("ucq: relation %q has arity %d, query uses %d", d.Name, r.Arity(), d.Arity)
		}
	}
	return &boundQuery{}, nil
}

// newBoundPlan wraps a bound query in a fresh Plan carrying this binding's
// context.
func (pq *PreparedQuery) newBoundPlan(ctx context.Context, inst *Instance, bq *boundQuery) *Plan {
	return &Plan{
		Query:     pq.Query,
		Evaluated: pq.Evaluated,
		Mode:      pq.Mode,
		Cert:      pq.Cert,
		union:     bq.union,
		inst:      inst,
		ctx:       ctx,
	}
}

// NewPlan prepares the evaluation of u over inst: it removes redundant
// (contained) CQs, searches for a free-connexity certificate and builds
// the Theorem 12 pipeline, falling back to the naive evaluator when no
// certificate is found. It is Prepare followed by Bind; callers evaluating
// one query over many instances should call Prepare once and Bind per
// instance.
func NewPlan(u *UCQ, inst *Instance, opts *PlanOptions) (*Plan, error) {
	pq, err := Prepare(u, opts)
	if err != nil {
		return nil, err
	}
	return pq.Bind(inst)
}

// Iterator returns a fresh duplicate-free stream of the union's answers.
// The binding context given to BindContext (if any) is the stream's
// context; see AnswersContext.
func (p *Plan) Iterator() Answers {
	return p.AnswersContext(p.bindCtx())
}

// AnswersContext returns a fresh duplicate-free stream of the union's
// answers that stops when ctx is done. A constant-delay stream runs on the
// goroutine calling Next and checks ctx once per batch: after cancellation
// it ends within one batch (at most 256 further answers). No error is
// surfaced — cancellation is abandonment, and the caller holding ctx
// knows. A naive plan evaluates under ctx and then hands out a
// materialized stream that no longer looks at it; a ctx already cancelled
// at call time yields an empty stream. A nil ctx means the binding context
// (or Background).
func (p *Plan) AnswersContext(ctx context.Context) Answers {
	if ctx == nil {
		ctx = p.bindCtx()
	}
	if ctx.Err() != nil {
		return enumeration.NewSliceIterator(nil)
	}
	if p.Mode == ConstantDelay {
		return p.union.Answers(ctx, nil)
	}
	rel, err := baseline.EvalUCQCtx(ctx, p.Evaluated, p.inst)
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled mid-evaluation: like a constant-delay stream, the
			// stream just ends early — cancellation is abandonment, and the
			// caller holding ctx knows.
			return enumeration.NewSliceIterator(nil)
		}
		// NewPlan validated the schema; reaching this is a bug.
		panic(fmt.Sprintf("ucq: naive evaluation failed after validation: %v", err))
	}
	// Views of the answer relation's rows: stable, since nothing appends to
	// it.
	i := 0
	return enumeration.Func(func() (Tuple, bool) {
		if i == rel.Len() {
			return nil, false
		}
		i++
		return rel.Row(i - 1), true
	})
}

// bindCtx returns the context recorded at bind time, or Background.
func (p *Plan) bindCtx() context.Context {
	if p.ctx != nil {
		return p.ctx
	}
	return context.Background()
}

// CloseAnswers ends a partially drained answer stream: afterwards Next
// reports exhaustion and the stream's buffers are released. It is safe to
// call on any Answers value, and never required — no stream holds a
// goroutine.
func CloseAnswers(it Answers) {
	enumeration.CloseIterator(it)
}

// AnswersErr reports the error that ended an answer stream prematurely, if
// any: the Answers value's Err method, when it has one. A plan's own
// streams (Iterator, AnswersContext) cannot fail and report nil; the
// contract exists for streams that can. Check it after Next reports
// exhaustion: a non-nil error means the stream was truncated, not
// completed, and the answers seen so far are an arbitrary prefix.
func AnswersErr(it Answers) error {
	return enumeration.IterErr(it)
}

// All returns a fresh duplicate-free answer stream as a Go range-over-func
// sequence: `for t := range plan.All(ctx) { ... }`. The backing iterator
// is closed when the range ends, by exhaustion or an early break. A nil
// ctx means the binding context (see AnswersContext for the
// cancellation semantics). The sequence is single-use; call All again for
// a new enumeration.
func (p *Plan) All(ctx context.Context) iter.Seq[Tuple] {
	return enumeration.Seq(p.AnswersContext(ctx))
}

// Materialize drains a fresh iterator into a relation.
func (p *Plan) Materialize() *Relation {
	out := database.NewRelation("answers", p.Query.Arity())
	for t := range p.All(nil) {
		out.Append(t...)
	}
	return out
}

// Count drains a fresh iterator and returns the number of answers.
func (p *Plan) Count() int {
	n := 0
	for range p.All(nil) {
		n++
	}
	return n
}

// CountExact returns the plan's exact answer count without enumerating,
// when the bound pipeline supports it: a certified plan whose union has a
// single extension enumerates from one CDY plan, so the Theorem 12
// counting pass (one linear pass over the join tree, yannakakis
// CountAnswers) already is the answer count. ok is false when counting
// requires cross-branch deduplication, i.e. enumeration — use Count then.
func (p *Plan) CountExact() (n int64, ok bool) {
	if p.Mode != ConstantDelay {
		return 0, false
	}
	return p.union.ExactCount()
}

// Explain renders a human-readable description of the plan: in
// constant-delay mode, the certified extensions, provider runs and per-CQ
// engine plans; in naive mode, a one-line notice.
func (p *Plan) Explain() string {
	if p.Mode == ConstantDelay {
		return p.union.Explain()
	}
	return "naive plan: join and deduplicate (no certificate; no delay guarantee)\n"
}

// Enumerate is the one-call convenience: plan and return the answer stream.
func Enumerate(u *UCQ, inst *Instance) (Answers, error) {
	p, err := NewPlan(u, inst, nil)
	if err != nil {
		return nil, err
	}
	return p.Iterator(), nil
}

// EnumerateCQ enumerates a single free-connex CQ with the CDY engine
// directly (Theorem 3(1)); it errors when the CQ is not free-connex.
func EnumerateCQ(q *CQ, inst *Instance) (Answers, error) {
	plan, err := yannakakis.Prepare(q, inst, nil)
	if err != nil {
		return nil, err
	}
	it := plan.Iterator()
	return enumeration.Func(func() (Tuple, bool) {
		if !it.Next() {
			return nil, false
		}
		return it.HeadTuple(), true
	}), nil
}

// DecideCQ reports whether an acyclic CQ has at least one answer, in
// linear time (Theorem 3's tractable Decide).
func DecideCQ(q *CQ, inst *Instance) (bool, error) {
	return yannakakis.Decide(q, inst)
}

// Decide reports whether the union has at least one answer. Acyclic CQs are
// decided in linear time; cyclic ones fall back to the naive evaluator.
func Decide(u *UCQ, inst *Instance) (bool, error) {
	for _, q := range u.CQs {
		var ok bool
		var err error
		if ClassifyCQ(q) == Cyclic {
			ok, err = baseline.DecideCQ(q, inst)
		} else {
			ok, err = yannakakis.Decide(q, inst)
		}
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}
