package ucq

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"iter"
	"runtime"

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
	// Search bounds the certificate search.
	Search *SearchOptions
	// ForceNaive skips certification and uses the naive evaluator.
	ForceNaive bool
	// RequireConstantDelay makes NewPlan fail instead of falling back to
	// the naive evaluator.
	RequireConstantDelay bool
	// KeepRedundant skips the containment-based reduction (Example 1);
	// redundant CQs never change the answer set, only the plan.
	KeepRedundant bool
	// Workers selects where a constant-delay plan's enumeration runs. Every
	// certified branch is cut into root-row-range tasks that skip what an
	// earlier branch contains, so the tasks are disjoint and one merge just
	// concatenates them; Workers picks where the tasks run. 0 (the
	// default) runs them inline, in order, on the goroutine calling
	// Next: constant delay, a deterministic answer order and no goroutine
	// to release. n ≥ 1 drains them on the work-stealing executor
	// with n workers, which steal and re-split tasks so a single heavy
	// branch no longer serialises on one goroutine: the answer set is
	// identical, the order is nondeterministic, and the stream must be
	// drained to exhaustion, Closed (see CloseAnswers) or have its context
	// cancelled to release the workers. At every setting a cancelled stream
	// ends within one batch. Naive plans have one evaluator and ignore
	// Workers.
	Workers int
	// Auto lets the planner pick Workers itself at bind time, from what it
	// already knows about the (query, instance) pair: relation
	// cardinalities, the exact per-branch answer counts of the Theorem 12
	// counting pass, and GOMAXPROCS. The resolved worker count and the
	// reason for it are recorded on the plan (see Plan.Decision) and
	// rendered by Explain. Auto contradicts an explicit Workers — a
	// hand-picked pool means the caller has decided.
	Auto bool
}

// OptionsError reports an invalid PlanOptions combination. NewPlan returns
// it (match with errors.As) instead of silently ignoring the conflicting
// fields.
type OptionsError struct {
	// Field names the offending option.
	Field string
	// Reason explains the conflict.
	Reason string
}

// Error implements error.
func (e *OptionsError) Error() string {
	return fmt.Sprintf("ucq: invalid PlanOptions: %s: %s", e.Field, e.Reason)
}

// validate rejects option combinations that previously degraded silently.
func (o *PlanOptions) validate() error {
	if o.ForceNaive && o.RequireConstantDelay {
		return &OptionsError{Field: "ForceNaive", Reason: "contradicts RequireConstantDelay"}
	}
	if o.Auto && o.Workers > 0 {
		return &OptionsError{Field: "Auto", Reason: "contradicts an explicit Workers"}
	}
	if o.Workers < 0 {
		return &OptionsError{Field: "Workers", Reason: fmt.Sprintf("must be ≥ 0, got %d", o.Workers)}
	}
	return nil
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

	union   *core.UnionPlan
	inst    *database.Instance
	workers int
	// decision is the Auto planner's resolved configuration and
	// provenance; nil for hand-picked execution options.
	decision *Decision
	// ctx is the binding context from BindExecContext: the default parent
	// for the background work of every Answers stream this plan produces.
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
// or "" for an inline-instance bind (NewPlan, Bind, BindExec).
func (p *Plan) DatasetName() string { return p.dsName }

// DatasetVersion returns the version of the dataset snapshot the plan was
// bound against, or 0 for an inline-instance bind. The plan enumerates
// that snapshot even if the dataset is replaced afterwards.
func (p *Plan) DatasetVersion() uint64 { return p.dsVersion }

// BindCacheHit reports whether the plan's per-instance preprocessing was
// served from the catalog's bind cache rather than computed (BindDataset
// only; inline binds never hit the cache).
func (p *Plan) BindCacheHit() bool { return p.bindHit }

// Decision is the Auto planner's provenance record: the worker count it
// resolved for one bind, why, and the inputs the choice was made from.
// Surfaced by Plan.Decision, rendered by Explain, and counted per Kind in
// the server's /stats — a regressed decision should be observable, not a
// silent slowdown.
type Decision struct {
	// Workers is the resolved PlanOptions.Workers: 0 for the inline
	// source, n ≥ 1 for the executor with n workers.
	Workers int
	// Kind names the strategy: "sequential" or "parallel".
	Kind string
	// Reason explains the pick in one sentence.
	Reason string
	// Rows, Answers, Branches and CPUs are the decision inputs: instance
	// tuples, the exact summed branch cardinality (-1 when unknown — the
	// naive evaluator cannot count without evaluating), union branches,
	// and GOMAXPROCS at bind time.
	Rows     int
	Answers  int64
	Branches int
	CPUs     int
}

// String renders the decision with its reason.
func (d *Decision) String() string {
	return fmt.Sprintf("%s (workers=%d): %s", d.Kind, d.Workers, d.Reason)
}

// Decision returns the Auto planner's provenance for this bind, or nil
// when the execution options were hand-picked (no decision was made).
func (p *Plan) Decision() *Decision { return p.decision }

// autoCPUs reports the parallelism the Auto planner budgets for; a
// variable so decision tests can pin a core count.
var autoCPUs = func() int { return runtime.GOMAXPROCS(0) }

// PreparedQuery is the instance-independent half of a plan: the outcome of
// option validation, containment-based redundancy removal and the
// free-connexity certificate search. All of it depends only on the query
// (and the preparation options), never on the data, so a PreparedQuery can
// be built once and bound to many instances — this is what a long-lived
// server caches per (query, schema) to amortize the Theorem 12 certificate
// search across requests, while the per-instance preprocessing happens in
// Bind.
//
// A PreparedQuery is immutable after Prepare returns and is safe for
// concurrent use: Bind and BindExec may be called from any number of
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

	opts PlanOptions
	// fingerprint identifies the preparation inputs (query text plus the
	// preparation-shaping options); see Fingerprint.
	fingerprint string
}

// Fingerprint returns a stable identifier of the preparation inputs: the
// query as given plus every option that shapes preparation (ForceNaive,
// RequireConstantDelay, KeepRedundant and the search bounds). Two Prepare
// calls with the same inputs produce the same fingerprint, so bound plans
// cached under it (the catalog's bind cache) are interchangeable across
// PreparedQuery values. Execution options are excluded on purpose — they
// do not affect the per-instance preprocessing the fingerprint keys.
func (pq *PreparedQuery) Fingerprint() string { return pq.fingerprint }

// fingerprintQuery hashes the preparation inputs.
func fingerprintQuery(u *UCQ, opts *PlanOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "force-naive=%v require-cd=%v keep-redundant=%v search=%+v\n%s",
		opts.ForceNaive, opts.RequireConstantDelay, opts.KeepRedundant, opts.Search, u.String())
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Prepare runs the instance-independent part of planning: it validates the
// query and options, removes redundant (contained) CQs, and searches for a
// free-connexity certificate, deciding between constant-delay and naive
// evaluation. The result is bound to concrete instances with Bind.
func Prepare(u *UCQ, opts *PlanOptions) (*PreparedQuery, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &PlanOptions{}
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	work := u
	if !opts.KeepRedundant {
		work = homomorphism.RemoveRedundant(u)
	}
	pq := &PreparedQuery{Query: u, Evaluated: work, Mode: Naive, opts: *opts,
		fingerprint: fingerprintQuery(u, opts)}
	if !opts.ForceNaive {
		if cert, ok := core.FindCertificate(work, opts.Search); ok {
			pq.Mode = ConstantDelay
			pq.Cert = cert
			return pq, nil
		}
	}
	if opts.RequireConstantDelay {
		return nil, fmt.Errorf("ucq: no free-connexity certificate found and constant delay was required")
	}
	return pq, nil
}

// Bind attaches the prepared query to an instance, running the per-instance
// Theorem 12 preprocessing (constant-delay mode) or validating the schema
// (naive mode). The execution options given at Prepare time apply.
//
// A constant-delay plan is a snapshot of the instance as bound. It may
// share row storage with inst's relations instead of copying it, which is
// safe because stored rows are never rewritten: rows appended to a relation
// after Bind are invisible to the plan — to its answers, its counts and its
// membership probes — and a later Bind sees them. Appending while a Bind of
// the same relation is still running is a data race, as it always was. A
// naive plan reads inst at enumeration time and promises no snapshot.
func (pq *PreparedQuery) Bind(inst *Instance) (*Plan, error) {
	return pq.BindExec(inst, nil)
}

// BindExec is Bind with per-binding execution options: Workers and Auto
// are taken from exec instead of the Prepare-time options, so one cached
// PreparedQuery can serve requests that differ only in execution strategy.
// Fields of exec that shape preparation (ForceNaive, RequireConstantDelay,
// KeepRedundant, Search) are fixed at Prepare time and ignored here. A nil
// exec reuses the Prepare-time options unchanged.
func (pq *PreparedQuery) BindExec(inst *Instance, exec *PlanOptions) (*Plan, error) {
	return pq.BindExecContext(context.Background(), inst, exec)
}

// BindExecContext is BindExec with end-to-end cancellation: ctx is checked
// during the per-instance Theorem 12 preprocessing (a cancelled bind aborts
// between extensions with ctx's error) and becomes the default parent
// context of every Answers stream the plan produces — cancelling it
// releases the executor workers behind Iterator's streams, whether or not
// CloseAnswers is called. A nil ctx means context.Background().
func (pq *PreparedQuery) BindExecContext(ctx context.Context, inst *Instance, exec *PlanOptions) (*Plan, error) {
	// The inline-instance API is a thin wrapper over a one-shot anonymous
	// dataset: same bind path as BindDataset, no name, no bind cache.
	return pq.BindDatasetExecContext(ctx, anonymousDataset(inst), exec)
}

// execOptions merges per-binding execution options over the Prepare-time
// options, validating them.
func (pq *PreparedQuery) execOptions(exec *PlanOptions) (PlanOptions, error) {
	opts := pq.opts
	if exec != nil {
		if err := exec.validate(); err != nil {
			return PlanOptions{}, err
		}
		opts.Workers = exec.Workers
		opts.Auto = exec.Auto
	}
	return opts, nil
}

// boundQuery is the per-instance half of a plan — the outcome of binding a
// prepared query to one immutable instance. In constant-delay mode it
// holds the Theorem 12 union pipeline; in naive mode it only records that
// the schema validated. Execution options never shape it, so one bound
// query serves every execution strategy. A boundQuery is read-only after
// bindInstance returns and safe to share across concurrent plans, which is
// what the catalog's bind cache does.
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

// minParallelWork is the smallest work — input rows plus output answers,
// the two linear terms of the Theorem 12 cost model — worth paying the
// executor's fixed costs for: worker startup and batch channels. Below it
// an inline drain finishes before a pool warms up.
const minParallelWork = 1 << 12 // 4096 tuples

// decide resolves an Auto bind's worker count with the cost model. Its
// inputs are O(1) reads of the bound state — the counting pass behind the
// exact answer count runs once per bound union and is cached with it — so
// the decision is recomputed per bind rather than stored: a cache-served
// bind always reflects the current GOMAXPROCS.
func (pq *PreparedQuery) decide(inst *Instance, bq *boundQuery) *Decision {
	answers := int64(-1) // naive mode cannot count without evaluating
	if bq.union != nil {
		answers = bq.union.AnswerEstimate()
	}
	return decideWorkers(bq.union != nil, inst.TupleCount(), answers, len(pq.Evaluated.CQs), autoCPUs())
}

// decideWorkers is the cost model: a pure function of what the bind path
// knows without enumerating, so a decision is reproducible for a given
// instance snapshot and CPU count. The query's class decides what is
// possible (only certified plans have an executor to size); the instance's
// size decides what is fast: tiny instances and single-CPU machines reward
// no parallelism at all.
func decideWorkers(constantDelay bool, rows int, answers int64, branches, cpus int) *Decision {
	d := &Decision{Kind: "sequential", Rows: rows, Answers: answers, Branches: branches, CPUs: cpus}
	work := int64(rows)
	if answers > 0 {
		work += answers
	}
	switch {
	case !constantDelay:
		d.Reason = "naive evaluation: one join-and-deduplicate evaluator, no executor to size"
	case cpus <= 1:
		d.Reason = "single CPU: the executor only adds scheduling overhead"
	case work < minParallelWork:
		d.Reason = fmt.Sprintf("tiny instance (%d rows + answers < %d): executor startup would dominate", work, minParallelWork)
	default:
		d.Workers, d.Kind = cpus, "parallel"
		d.Reason = fmt.Sprintf("work-stealing executor: %d rows + answers across %d root-range workers", work, cpus)
	}
	return d
}

// newBoundPlan wraps a bound query in a fresh Plan carrying this binding's
// execution options and context. An Auto bind takes its worker count from
// the cost decision.
func (pq *PreparedQuery) newBoundPlan(ctx context.Context, inst *Instance, opts PlanOptions, bq *boundQuery) *Plan {
	var dec *Decision
	if opts.Auto {
		dec = pq.decide(inst, bq)
		opts.Workers = dec.Workers
	}
	return &Plan{
		Query:     pq.Query,
		Evaluated: pq.Evaluated,
		Mode:      pq.Mode,
		Cert:      pq.Cert,
		union:     bq.union,
		inst:      inst,
		workers:   opts.Workers,
		decision:  dec,
		ctx:       ctx,
	}
}

// NewPlan prepares the evaluation of u over inst: it removes redundant
// (contained) CQs, searches for a free-connexity certificate and builds
// the Theorem 12 pipeline, falling back to the naive evaluator when no
// certificate is found (unless RequireConstantDelay is set). It is
// Prepare followed by Bind; callers evaluating one query over many
// instances should call Prepare once and Bind per instance.
func NewPlan(u *UCQ, inst *Instance, opts *PlanOptions) (*Plan, error) {
	pq, err := Prepare(u, opts)
	if err != nil {
		return nil, err
	}
	return pq.Bind(inst)
}

// Iterator returns a fresh duplicate-free stream of the union's answers.
// With PlanOptions.Workers set (or resolved by Auto), the stream is backed
// by the work-stealing executor's worker pool; drain it fully or release it
// with CloseAnswers.
// The binding context given to BindExecContext (if any) is the stream's
// context; see AnswersContext.
func (p *Plan) Iterator() Answers {
	return p.AnswersContext(p.bindCtx())
}

// AnswersContext returns a fresh duplicate-free stream of the union's
// answers that stops when ctx is done. A constant-delay stream checks ctx
// once per batch at every worker count: after cancellation it ends within
// one batch (at most 256 further answers) and every executor worker behind
// it is released. No error is surfaced — cancellation is abandonment, and
// the caller holding ctx knows. A naive plan evaluates under ctx and then
// hands out a materialized stream that no longer looks at it; a ctx
// already cancelled at call time yields an empty stream. A nil ctx means
// the binding context (or Background).
func (p *Plan) AnswersContext(ctx context.Context) Answers {
	if ctx == nil {
		ctx = p.bindCtx()
	}
	if ctx.Err() != nil {
		return enumeration.NewSliceIterator(nil)
	}
	if p.Mode == ConstantDelay {
		return p.union.Answers(ctx, enumeration.UnionOptions{Workers: p.workers}, nil)
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

// CloseAnswers releases what is behind a partially drained answer stream:
// the worker goroutines of a plan with Workers ≥ 1 (blocking until they
// have exited). It is safe to call on any Answers value; streams without
// workers have nothing to release.
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
// is released when the range ends — by exhaustion or an early break — so
// parallel plans never leak executor workers through an abandoned range.
// A nil ctx means the binding context (see AnswersContext for the
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
// engine plans; in naive mode, a one-line notice. Auto binds append the
// cost decision's provenance: the resolved worker count, the reason, and
// the inputs the choice was made from.
func (p *Plan) Explain() string {
	var s string
	if p.Mode == ConstantDelay {
		s = p.union.Explain()
	} else {
		s = "naive plan: join and deduplicate (no certificate; no delay guarantee)\n"
	}
	if d := p.Decision(); d != nil {
		s += fmt.Sprintf("auto decision: %s [rows=%d answers=%d branches=%d cpus=%d]\n",
			d, d.Rows, d.Answers, d.Branches, d.CPUs)
	}
	return s
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
