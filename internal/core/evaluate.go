package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/exec"
	"repro/internal/yannakakis"
)

// UnionPlan is a prepared Theorem 12 evaluation of a certified free-connex
// UCQ: linear preprocessing, constant delay, no duplicate answers.
//
// Preparation follows the proof of Theorem 12. For each CQ (providers
// before consumers, by the recursive structure of the certificate), every
// virtual atom's relation is instantiated by running the provider's
// S-connex enumeration (Lemma 8): each provider S-tuple is translated
// through the body-homomorphism into a row of the virtual relation. The
// proof also emits each provider tuple's extension as an answer "produced
// along the way"; here it is only counted (UnionStats.BonusAnswers),
// because it is an answer of the provider CQ and that CQ's own member plan
// (Certificate.Extensions is parallel to U.CQs) enumerates it anyway.
//
// The extended CQs are then enumerated by the CDY engine and deduplicated
// by membership, not by memory — Algorithm 1's idea (Theorem 4) applied as
// a rank rule: member i's answer is emitted iff no member j < i contains
// it, a constant-time probe of j's full-key top indexes. Every stream is
// therefore disjoint by construction and holds no answer set.
type UnionPlan struct {
	U    *cq.UCQ
	Cert *Certificate

	plans []*yannakakis.Plan
	// resolved caches instantiated instances per extension snapshot.
	resolved map[*ExtendedCQ]*database.Instance
	inst     *database.Instance
	stats    UnionStats

	// estimate caches the summed branch cardinality (-1 until computed),
	// the cost model's output-volume input. It is the only field written
	// after preparation, so it is atomic: a bound plan served from the
	// catalog's bind cache is read by concurrent requests, and racing
	// computations store the same value.
	estimate atomic.Int64
}

// UnionStats reports preprocessing counters of a union plan.
type UnionStats struct {
	// ProviderRuns counts Lemma 8 provider enumerations.
	ProviderRuns int
	// BonusAnswers counts the provider tuples enumerated by those runs —
	// the proof's "answers produced along the way", which the providers'
	// member plans enumerate again.
	BonusAnswers int
	// VirtualTuples counts rows across instantiated virtual relations.
	VirtualTuples int
}

// Stats returns the plan's preprocessing counters.
func (p *UnionPlan) Stats() UnionStats { return p.stats }

// NewUnionPlan verifies the certificate and performs the full Theorem 12
// preprocessing over the instance.
//
// The (u, cert) pair is only read: a certificate found once may be shared
// by concurrent NewUnionPlan calls binding it to different instances (the
// prepared-plan reuse a long-lived server depends on). All mutable state —
// virtual relations, per-CQ engine plans — lives in the returned UnionPlan.
func NewUnionPlan(u *cq.UCQ, cert *Certificate, inst *database.Instance) (*UnionPlan, error) {
	return NewUnionPlanCtx(context.Background(), u, cert, inst)
}

// NewUnionPlanCtx is NewUnionPlan with cancellation: the per-extension
// preprocessing (provider runs, virtual-relation instantiation, CDY
// preparation) checks ctx between extensions and aborts with ctx's error
// when the caller — typically a disconnected client — has gone away.
func NewUnionPlanCtx(ctx context.Context, u *cq.UCQ, cert *Certificate, inst *database.Instance) (*UnionPlan, error) {
	if err := cert.Verify(u); err != nil {
		return nil, err
	}
	p := &UnionPlan{
		U:        u,
		Cert:     cert,
		resolved: make(map[*ExtendedCQ]*database.Instance),
		inst:     inst,
	}
	p.estimate.Store(-1)
	for _, e := range cert.Extensions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		extInst, err := p.resolve(e)
		if err != nil {
			return nil, err
		}
		plan, err := yannakakis.Prepare(e.Query(), extInst, nil)
		if err != nil {
			return nil, fmt.Errorf("core: preparing %s: %w", e.Base.Name, err)
		}
		if !plan.HeadTestable() {
			// The rank rule dedups by probing member plans with head tuples;
			// a plan that cannot answer would let duplicates through.
			return nil, fmt.Errorf("core: member %s does not enumerate exactly its head variables; membership is undecidable from an answer", e.Base.Name)
		}
		p.plans = append(p.plans, plan)
	}
	return p, nil
}

// resolve instantiates the virtual relations of e (recursively resolving
// provider snapshots) and returns an instance overlaying them on the base.
func (p *UnionPlan) resolve(e *ExtendedCQ) (*database.Instance, error) {
	if inst, ok := p.resolved[e]; ok {
		return inst, nil
	}
	inst := p.inst.ShallowClone()
	for _, va := range e.Virtuals {
		rel, err := p.runProvider(va)
		if err != nil {
			return nil, err
		}
		rel.Dedup() // free when runProvider marked the rows distinct
		p.stats.VirtualTuples += rel.Len()
		inst.AddRelation(rel)
	}
	p.resolved[e] = inst
	return inst, nil
}

// runProvider executes one Lemma 8 provider enumeration: it prepares the
// provider snapshot with enumeration set S and translates each S-tuple
// into the virtual relation through the body-homomorphism.
func (p *UnionPlan) runProvider(va VirtualAtom) (*database.Relation, error) {
	prov := va.Prov
	provInst, err := p.resolve(prov.Provider)
	if err != nil {
		return nil, err
	}
	pq := prov.Provider.Query()
	plan, err := yannakakis.Prepare(pq, provInst, prov.S)
	if err != nil {
		return nil, fmt.Errorf("core: preparing provider %s: %w", pq.Name, err)
	}
	p.stats.ProviderRuns++

	// preimages[k] lists the provider variables v2 ∈ S with h(v2) equal to
	// the k-th provided variable; their values must agree for a provider
	// answer to translate (the µ(h⁻¹(v1)) of Lemma 8).
	preimages := make([][]cq.Variable, len(va.Atom.Vars))
	mapped := 0
	for k, v1 := range va.Atom.Vars {
		for v2 := range prov.S {
			if prov.Hom.Apply(v2) == v1 {
				preimages[k] = append(preimages[k], v2)
			}
		}
		if len(preimages[k]) == 0 {
			return nil, fmt.Errorf("core: provided variable %s has no preimage in S", v1)
		}
		mapped += len(preimages[k])
	}

	rel := database.NewRelation(va.Atom.Rel, len(va.Atom.Vars))
	row := make(database.Tuple, len(va.Atom.Vars))
	it := plan.Iterator()
	for it.Next() {
		p.stats.BonusAnswers++
		// Translate: all preimages of a provided variable must agree.
		ok := true
		for k, pre := range preimages {
			val := it.Value(pre[0])
			for _, v2 := range pre[1:] {
				if it.Value(v2) != val {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			row[k] = val
		}
		if ok {
			rel.Append(row...)
		}
	}
	if mapped == len(prov.S) {
		// Every S variable lands in the row, so the translation is injective
		// and the rows are as duplicate-free as the S-tuples they came from.
		rel.MarkDistinct()
	}
	return rel, nil
}

// Explain renders a human-readable description of the union plan: the
// certified extensions, the provider runs performed during preprocessing,
// and per member the earlier members it is deduplicated against, the probe
// cost of that, and its engine plan.
func (p *UnionPlan) Explain() string {
	var b strings.Builder
	b.WriteString("Theorem 12 union plan\n")
	b.WriteString("certified extensions:\n")
	for _, line := range strings.Split(p.Cert.String(), "\n") {
		b.WriteString("  " + line + "\n")
	}
	st := p.Stats()
	fmt.Fprintf(&b, "preprocessing: %d provider runs, %d bonus answers, %d virtual tuples\n",
		st.ProviderRuns, st.BonusAnswers, st.VirtualTuples)
	probes := 0
	for i, plan := range p.plans {
		fmt.Fprintf(&b, "-- member %d --\n", i)
		if i == 0 {
			b.WriteString("dedup by membership: first member, emitted unfiltered\n")
		} else {
			fmt.Fprintf(&b, "dedup by membership: skips answers contained in members 0..%d (at most %d index probes per answer)\n", i-1, probes)
		}
		b.WriteString(plan.Explain())
		probes += plan.Stats().Tops
	}
	return b.String()
}

// Iterator returns a fresh duplicate-free iterator over the union's
// answers (head tuples, positional), run inline on the caller's goroutine:
// shorthand for Answers with the zero options.
func (p *UnionPlan) Iterator() *enumeration.Union {
	return p.Answers(context.Background(), enumeration.UnionOptions{}, nil)
}

// Answers is the one stream builder: it cuts every member plan into
// root-range tasks that skip what an earlier member contains (the rank
// rule, see planTask) and hands them to enumeration.Union, which only
// concatenates: the tasks are pairwise disjoint by construction. opts
// carries the caller's choices, Workers and BatchSize.
//
// Inline (Workers 0) each member is one full-range task and the stream is
// deterministic: member 0, then member 1 minus member 0, …. On the executor
// each member is cut into splitFactor × Workers root-range tasks that
// workers steal and re-split, and the membership probes run in the
// workers; the answer set is identical, the order is not.
//
// A non-empty names restricts the stream to the members a change to the
// named relations can affect: the extensions whose relation footprint
// meets names. Untouched members enumerate the same answers at both ends
// of an append delta, so semi-naive maintenance skips them — but they still
// rank: an answer one of them contains is not new.
//
// Cancelling ctx ends the stream within one batch. A stream on the
// executor must be drained to exhaustion or Closed; see enumeration.Union.
func (p *UnionPlan) Answers(ctx context.Context, opts enumeration.UnionOptions, names map[string]struct{}) *enumeration.Union {
	parts := max(splitFactor*opts.Workers, 1)
	tasks := make([]exec.Task, 0, parts*len(p.plans))
	for i, pl := range p.plans {
		if len(names) > 0 && !p.Cert.Extensions[i].TouchesRelations(names) {
			continue
		}
		tasks = planTasks(tasks, pl, p.plans[:i], parts)
	}
	return enumeration.NewUnion(ctx, p.U.Arity(), opts, tasks)
}

// AnswerEstimate lazily computes and caches the union's summed branch
// cardinality — each member plan's exact output count (one linear counting
// pass per branch, no enumeration). Cross-branch duplicates make this an
// upper bound on the distinct answer count; for a single-branch union it
// is exact. The cost model reads it as the output-volume input of the mode
// decision.
func (p *UnionPlan) AnswerEstimate() int64 {
	est := p.estimate.Load()
	if est < 0 {
		est = 0
		for _, pl := range p.plans {
			est += pl.CountAnswers()
		}
		p.estimate.Store(est)
	}
	return est
}

// ExactCount returns the union's answer count without enumerating, when
// it has a single member: one CDY plan enumerates each answer exactly
// once, so its counting pass (yannakakis CountAnswers) is the answer
// count. ok is false for several members — counting what the rank rule
// lets through requires the probes, i.e. enumeration.
func (p *UnionPlan) ExactCount() (int64, bool) {
	if len(p.plans) == 1 {
		return p.plans[0].CountAnswers(), true
	}
	return 0, false
}

// ContainsAnswer reports whether t is an answer of the union over the
// plan's bound instance, in constant time: each certified branch is probed
// through its CDY full-tree head index (yannakakis ContainsHead). Delta
// maintenance uses it as the old-version membership test — a candidate
// answer found over the appended tuples is new iff the plan bound at the
// previous version does not contain it.
func (p *UnionPlan) ContainsAnswer(t database.Tuple) bool {
	return anyContains(p.plans, t)
}

// anyContains reports whether some plan contains the head tuple t.
func anyContains(plans []*yannakakis.Plan, t database.Tuple) bool {
	for _, pl := range plans {
		if pl.ContainsHead(t) {
			return true
		}
	}
	return false
}

// Materialize drains a fresh iterator into a relation.
func (p *UnionPlan) Materialize() *database.Relation {
	out := database.NewRelation("union", p.U.Arity())
	it := p.Iterator()
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out.Append(t...)
	}
}

// headIterator adapts a CDY plan iterator to the enumeration.Testable
// interface Algorithm 1 consumes, yielding head tuples.
type headIterator struct {
	it *yannakakis.Iterator
}

func (h *headIterator) Next() (database.Tuple, bool) {
	if !h.it.Next() {
		return nil, false
	}
	return h.it.HeadTuple(), true
}

// Contains implements enumeration.Testable via the plan's constant-time
// membership test.
func (h *headIterator) Contains(t database.Tuple) bool {
	return h.it.Plan().ContainsHead(t)
}

// NewAlgorithmOneUnion evaluates a union of two free-connex CQs with the
// paper's Algorithm 1 (Theorem 4) as written — for each answer of Q1 that
// Q2 also contains, one answer of Q2 is emitted in its place — kept as the
// ablation of the engine's rank rule. Both CQs must be free-connex as
// plain CQs.
func NewAlgorithmOneUnion(u *cq.UCQ, inst *database.Instance) (enumeration.Iterator, error) {
	if len(u.CQs) != 2 {
		return nil, fmt.Errorf("core: Algorithm 1 unions exactly two CQs, got %d", len(u.CQs))
	}
	return NewAlgorithmOneUnionK(u, inst)
}

// NewAlgorithmOneUnionK evaluates a union of any number of free-connex CQs
// by the recursion in the proof of Theorem 4: Algorithm 1 treats the first
// CQ as Q1 and the union of the rest as Q2, whose membership test is the
// disjunction of the members' constant-time tests and whose iterator is
// the recursive union. Working memory stays constant in the input.
func NewAlgorithmOneUnionK(u *cq.UCQ, inst *database.Instance) (enumeration.Iterator, error) {
	if len(u.CQs) == 0 {
		return nil, fmt.Errorf("core: empty union")
	}
	plans := make([]*yannakakis.Plan, len(u.CQs))
	for i, q := range u.CQs {
		p, err := yannakakis.Prepare(q, inst, nil)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}
	return algorithmOneChain(plans), nil
}

// algorithmOneChain builds the Theorem 4 recursion over prepared plans.
func algorithmOneChain(plans []*yannakakis.Plan) enumeration.Iterator {
	if len(plans) == 1 {
		return &headIterator{it: plans[0].Iterator()}
	}
	rest := &unionTestable{
		inner: algorithmOneChain(plans[1:]),
		plans: plans[1:],
	}
	return enumeration.NewAlgorithmOne(&headIterator{it: plans[0].Iterator()}, rest)
}

// unionTestable is a duplicate-free union iterator with a constant-time
// membership test: a tuple belongs to the union iff some member plan
// contains it.
type unionTestable struct {
	inner enumeration.Iterator
	plans []*yannakakis.Plan
}

func (u *unionTestable) Next() (database.Tuple, bool) { return u.inner.Next() }

func (u *unionTestable) Contains(t database.Tuple) bool {
	return anyContains(u.plans, t)
}
