package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/yannakakis"
)

// UnionPlan is a compiled union bound to one instance: a Theorem 12
// evaluation of a certified free-connex UCQ with linear preprocessing,
// constant delay and no duplicate answers.
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
// it. Where member i's tops cover j's (yannakakis Shape.Cover), Bind
// decides that once per row instead of once per answer: it marks each row
// of i's reduced tops that j's tops contain, and enumerates i as the
// filtered copies of its tree that each keep the answers first leaving j
// at one top (yannakakis Plan.Minus) — no hashing and no dropped answer
// while streaming. Any other earlier member is left out by a constant-time
// probe of its full-key top indexes per answer. Every stream is therefore
// disjoint by construction and holds no answer set.
//
// A UnionPlan is read-only once Bind returns, so any number of streams may
// enumerate one plan concurrently, each on its own goroutine.
type UnionPlan struct {
	U    *cq.UCQ
	Cert *Certificate

	plans []*yannakakis.Plan
	// ranks are the members' compiled rank rules and streams what Bind
	// made of them, parallel to plans.
	ranks   []rankRule
	streams []memberStream
	stats   UnionStats
}

// memberStream is what a member's task walks: its answers outside the
// earlier members it is marked against, as the non-empty copies of its
// tree, and the plans of the earlier members it still probes per answer.
type memberStream struct {
	parts  []*yannakakis.Part
	probed []*yannakakis.Plan
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

// Bind performs the Theorem 12 preprocessing over the instance: it runs
// the compiled shapes' relation passes — provider runs, virtual-relation
// instantiation, CDY binding — then the rank rule's row marks and copies,
// and nothing that depends on the query alone. ctx is checked between
// member extensions; a cancelled bind aborts with ctx's error when the
// caller, typically a disconnected client, has gone away. All mutable
// state lives in the returned UnionPlan.
func (c *CompiledUnion) Bind(ctx context.Context, inst *database.Instance) (*UnionPlan, error) {
	n := len(c.members)
	p := &UnionPlan{U: c.U, Cert: c.Cert, ranks: c.ranks, plans: make([]*yannakakis.Plan, n),
		streams: make([]memberStream, n)}
	b := newBinder(c, p, inst)
	for i := range c.members {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan, err := b.member(i)
		if err != nil {
			return nil, err
		}
		// Every earlier member is bound: the rank rule can run.
		r := &c.ranks[i]
		p.streams[i] = memberStream{plan.Minus(r.covers, pick(p.plans, r.marked)), pick(p.plans, r.probed)}
	}
	return p, nil
}

// pick returns plans[i] for each i of idx, or nil for none.
func pick(plans []*yannakakis.Plan, idx []int) []*yannakakis.Plan {
	if len(idx) == 0 {
		return nil
	}
	out := make([]*yannakakis.Plan, len(idx))
	for k, i := range idx {
		out[k] = plans[i]
	}
	return out
}

// binder is the state of one Bind: the instance each extension resolved
// to, by position in CompiledUnion.virtuals, the relations each provider
// run translated, by position in CompiledUnion.runs, and the member plans
// bound so far, in UnionPlan.plans.
type binder struct {
	c     *CompiledUnion
	p     *UnionPlan
	base  *database.Instance
	insts []*database.Instance
	rels  [][]*database.Relation
}

func newBinder(c *CompiledUnion, p *UnionPlan, base *database.Instance) *binder {
	return &binder{c: c, p: p, base: base, insts: make([]*database.Instance, len(c.virtuals)),
		rels: make([][]*database.Relation, len(c.runs))}
}

// member binds member i's plan once per Bind, for the union and for any
// provider run that shares its shape.
func (b *binder) member(i int) (*yannakakis.Plan, error) {
	if plan := b.p.plans[i]; plan != nil {
		return plan, nil
	}
	extInst, err := b.resolve(i)
	if err != nil {
		return nil, err
	}
	plan, err := b.c.members[i].Bind(extInst)
	if err != nil {
		return nil, fmt.Errorf("core: preparing %s: %w", b.c.Cert.Extensions[i].Base.Name, err)
	}
	b.p.plans[i] = plan
	return plan, nil
}

// resolve instantiates the virtual relations of extension k (recursively
// resolving provider snapshots) and returns an instance overlaying them on
// the base.
func (b *binder) resolve(k int) (*database.Instance, error) {
	if inst := b.insts[k]; inst != nil {
		return inst, nil
	}
	virtuals := b.c.virtuals[k]
	inst := b.base
	if len(virtuals) > 0 {
		inst = b.base.ShallowClone()
		for i := range virtuals {
			v := &virtuals[i]
			if b.rels[v.run] == nil {
				if err := b.runProvider(v.run); err != nil {
					return nil, err
				}
			}
			rel := b.rels[v.run][v.feed]
			rel.Dedup() // free when runProvider marked the rows distinct
			b.p.stats.VirtualTuples += rel.Len()
			inst.AddRelation(rel)
		}
	}
	b.insts[k] = inst
	return inst, nil
}

// providerPlan binds a provider run's shape over the provider snapshot.
// A run that shares a member's shape enumerates exactly what that member
// does, so it iterates the member's plan instead of binding it again.
func (b *binder) providerPlan(run *providerRun) (*yannakakis.Plan, error) {
	if run.prov < len(b.c.members) && run.shape == b.c.members[run.prov] {
		return b.member(run.prov)
	}
	provInst, err := b.resolve(run.prov)
	if err != nil {
		return nil, err
	}
	plan, err := run.shape.Bind(provInst)
	if err != nil {
		return nil, fmt.Errorf("core: preparing provider %s: %w", run.shape.Q.Name, err)
	}
	return plan, nil
}

// runProvider executes Lemma 8 provider run r once: it enumerates the
// provider's plan with enumeration set S and translates each S-tuple,
// through each body-homomorphism, into every virtual relation the run
// feeds, leaving them in b.rels[r].
func (b *binder) runProvider(r int) error {
	run := &b.c.runs[r]
	plan, err := b.providerPlan(run)
	if err != nil {
		return err
	}
	b.p.stats.ProviderRuns++

	feeds := make([]*virtualShape, len(run.feeds))
	rels := make([]*database.Relation, len(run.feeds))
	width := 0
	for f, at := range run.feeds {
		v := &b.c.virtuals[at[0]][at[1]]
		feeds[f], rels[f] = v, database.NewRelation(v.rel, len(v.preimages))
		width = max(width, len(v.preimages))
	}
	row := make(database.Tuple, width)
	it := plan.Iterator()
	for it.Next() {
		b.p.stats.BonusAnswers++
		for f, v := range feeds {
			if t, ok := v.translate(it, row); ok {
				rels[f].Append(t...)
			}
		}
	}
	for f, v := range feeds {
		if v.injective {
			rels[f].MarkDistinct()
		}
	}
	b.rels[r] = rels
	return nil
}

// translate writes the virtual relation's row for the iterator's current
// S-tuple into row and returns it, or reports false when the preimages of
// some provided variable disagree.
func (v *virtualShape) translate(it *yannakakis.Iterator, row database.Tuple) (database.Tuple, bool) {
	row = row[:len(v.preimages)]
	for k, pre := range v.preimages {
		val := it.Var(pre[0])
		for _, id := range pre[1:] {
			if it.Var(id) != val {
				return nil, false
			}
		}
		row[k] = val
	}
	return row, true
}

// Explain renders a human-readable description of the union plan: the
// certified extensions, the provider runs performed during preprocessing,
// and per member the earlier members it leaves out by row marks, with its
// copy count, those it probes per answer, with the probe bound, and its
// engine plan.
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
	for i, plan := range p.plans {
		fmt.Fprintf(&b, "-- member %d --\n", i)
		if i == 0 {
			b.WriteString("dedup by membership: first member, emitted unfiltered\n")
		} else {
			r := &p.ranks[i]
			probes := 0
			for _, j := range r.probed {
				probes += p.plans[j].Stats().Tops
			}
			fmt.Fprintf(&b, "dedup by row marks: %s (%d copies, %d non-empty)\n", memberList(r.marked), r.copies, len(p.streams[i].parts))
			fmt.Fprintf(&b, "dedup by index probes: %s (at most %d per answer)\n", memberList(r.probed), probes)
		}
		b.WriteString(plan.Explain())
	}
	return b.String()
}

// memberList renders member positions as "members 0,2", or "none".
func memberList(idx []int) string {
	if len(idx) == 0 {
		return "none"
	}
	parts := make([]string, len(idx))
	for k, i := range idx {
		parts[k] = fmt.Sprint(i)
	}
	return "members " + strings.Join(parts, ",")
}

// Iterator returns a fresh duplicate-free iterator over the union's
// answers (head tuples, positional): shorthand for Answers with a
// background context and every member.
func (p *UnionPlan) Iterator() *enumeration.Union {
	return p.Answers(context.Background(), nil)
}

// Answers is the one stream builder: it feeds one task per member, in rank
// order, to enumeration.Union, which only concatenates — each task leaves
// out what an earlier member contains (the rank rule, see planTask), so
// the tasks are pairwise disjoint by construction. The stream runs on the
// caller's goroutine and is deterministic: member 0, then member 1 minus
// member 0, …. Within a member marked against earlier ones, the answers
// come copy by copy (yannakakis Plan.Minus), not in its plan's own order.
//
// A non-empty names restricts the stream to the members a change to the
// named relations can affect: the extensions whose relation footprint
// meets names. Untouched members enumerate the same answers at both ends
// of an append delta, so semi-naive maintenance skips them — but they still
// rank: an answer one of them contains is not new.
//
// Cancelling ctx ends the stream within one batch.
func (p *UnionPlan) Answers(ctx context.Context, names map[string]struct{}) *enumeration.Union {
	tasks := make([]enumeration.Task, 0, len(p.plans))
	for i := range p.plans {
		if len(names) > 0 && !p.Cert.Extensions[i].TouchesRelations(names) {
			continue
		}
		tasks = append(tasks, &planTask{parts: p.streams[i].parts, earlier: p.streams[i].probed})
	}
	return enumeration.NewUnion(ctx, p.U.Arity(), tasks)
}

// ExactCount returns the union's answer count without enumerating, when
// no member's stream probes an earlier member: then every member's parts
// hold exactly the answers the rank rule lets through, each enumerated
// once, so the sum of their counting passes (yannakakis CountAnswers) is
// the answer count — a single member's plan, or member 0's plan plus every
// later member's copies. ok is false otherwise: counting what the probes
// let through requires enumeration.
func (p *UnionPlan) ExactCount() (int64, bool) {
	n := int64(0)
	for _, m := range p.streams {
		if len(m.probed) > 0 {
			return 0, false
		}
		for _, pt := range m.parts {
			n += pt.CountAnswers()
		}
	}
	return n, true
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
		sh, err := yannakakis.Compile(q, nil)
		if err != nil {
			return nil, err
		}
		if plans[i], err = sh.Bind(inst); err != nil {
			return nil, err
		}
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
