package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/workload"
)

// These tests pin the rank rule — member i's answer is emitted iff no
// member j < i contains it — against oracles that never call ContainsHead
// or read a row mark: the naive evaluator for the answer multiset, and
// per-member drains of the engine plans for the member blocks.

// rows drains a stream into answer strings, in stream order.
func rows(it enumeration.Iterator) []string {
	var out []string
	for _, t := range enumeration.Collect(it) {
		out = append(out, t.String())
	}
	return out
}

// naiveRows evaluates u with the baseline evaluator, sorted.
func naiveRows(t *testing.T, u *cq.UCQ, inst *database.Instance) []string {
	t.Helper()
	rel, err := baseline.EvalUCQ(u, inst)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	var out []string
	for _, r := range rel.SortedRows() {
		out = append(out, r.String())
	}
	sort.Strings(out)
	return out
}

// rankBlocks is the stream as the rule defines it, up to the order within
// a member: one block per member, in rank order, block i being the set of
// member i's answers that no earlier member has. Within a block the
// stream's order is the member's copies' (yannakakis Plan.Minus), which
// the oracle does not pin.
func rankBlocks(p *UnionPlan) []map[string]bool {
	seen := make(map[string]bool)
	var blocks []map[string]bool
	for _, pl := range p.plans {
		block := make(map[string]bool)
		var mine []string
		for it := pl.Iterator(); it.Next(); {
			a := it.HeadTuple().String()
			mine = append(mine, a)
			if !seen[a] {
				block[a] = true
			}
		}
		for _, a := range mine {
			seen[a] = true
		}
		blocks = append(blocks, block)
	}
	return blocks
}

// checkRankRule asserts the rule on one bound plan: the stream is the
// member blocks in rank order, as a multiset it is the naive answer set,
// and no member's copy backtracks.
func checkRankRule(t *testing.T, label string, u *cq.UCQ, inst *database.Instance, plan *UnionPlan) {
	t.Helper()
	want := naiveRows(t, u, inst)
	got := rows(plan.Iterator())
	rest := got
	for i, block := range rankBlocks(plan) {
		if len(rest) < len(block) {
			t.Fatalf("%s: member %d's block has %d answers, the stream only %d more", label, i, len(block), len(rest))
		}
		emitted := make(map[string]bool)
		for _, a := range rest[:len(block)] {
			if !block[a] || emitted[a] {
				t.Fatalf("%s: answer %s in member %d's block is not one of its answers outside the earlier members, or repeats", label, a, i)
			}
			emitted[a] = true
		}
		rest = rest[len(block):]
	}
	if len(rest) > 0 {
		t.Fatalf("%s: %d answers after the last member's block: %v", label, len(rest), rest)
	}
	for i, m := range plan.streams {
		for k, pt := range m.parts {
			it := pt.Iterator()
			for it.Next() {
			}
			if it.Backtracks != 0 {
				t.Fatalf("%s: member %d's copy %d backtracked %d times", label, i, k, it.Backtracks)
			}
		}
	}
	sort.Strings(got)
	// Equal sorted slices: same multiset, hence duplicate-free (the naive
	// answer relation is a set).
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s: stream disagrees with the naive evaluator (%d vs %d answers)\ngot:  %v\nwant: %v\n%s",
			label, len(got), len(want), got, want, u)
	}
}

func TestRankRuleMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	for _, src := range []string{example2, example13} {
		u := cq.MustParse(src)
		cert, ok := FindCertificate(u, nil)
		if !ok {
			t.Fatalf("no certificate for\n%s", u)
		}
		overlapping := 0
		for trial := 0; trial < 6; trial++ {
			inst := randomInstance(u, rng, 40, 5)
			plan, err := bindUnion(u, cert, inst)
			if err != nil {
				t.Fatal(err)
			}
			// The members' summed counts exceed the union's exactly when
			// some answer belongs to two members.
			summed := int64(0)
			for _, pl := range plan.plans {
				summed += pl.CountAnswers()
			}
			if summed > int64(len(naiveRows(t, u, inst))) {
				overlapping++
			}
			checkRankRule(t, fmt.Sprintf("%s trial %d", u.CQs[0].Name, trial), u, inst, plan)
		}
		if overlapping == 0 {
			t.Errorf("no trial had members sharing an answer; the rule was never exercised on\n%s", u)
		}
	}

	certified := 0
	for i := 0; i < 150; i++ {
		u := workload.RandomUCQ(rng)
		inst := workload.RandomForQuery(u, 8+rng.Intn(20), int64(2+rng.Intn(4)), rng.Int63())
		cert, ok := FindCertificate(u, nil)
		if !ok {
			continue
		}
		certified++
		plan, err := bindUnion(u, cert, inst)
		if err != nil {
			t.Fatalf("draw %d: %v\n%s", i, err, u)
		}
		checkRankRule(t, fmt.Sprintf("draw %d", i), u, inst, plan)
	}
	if certified < 15 {
		t.Errorf("only %d/150 random unions certified; generator or certifier regressed", certified)
	}
}

// TestRankRuleDeltaCandidates: the names-filtered stream over an overlay
// instance (the touched relation replaced by its appended rows) is what
// semi-naive maintenance drains. Ranking against untouched members too must
// keep it a superset of Q(to) \ Q(from) inside Q(to).
func TestRankRuleDeltaCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, src := range []string{example2, example13} {
		u := cq.MustParse(src)
		cert, ok := FindCertificate(u, nil)
		if !ok {
			t.Fatalf("no certificate for\n%s", u)
		}
		for _, d := range u.Schema() {
			from := randomInstance(u, rng, 30, 5)
			delta := database.NewRelation(d.Name, d.Arity)
			to := from.ShallowClone()
			grown := from.Relation(d.Name).Clone()
			for i := 0; i < 6; i++ {
				row := make([]int64, d.Arity)
				for c := range row {
					row[c] = rng.Int63n(5)
				}
				delta.AppendInts(row...)
				grown.AppendInts(row...)
			}
			grown.Dedup()
			to.AddRelation(grown)
			overlay := to.ShallowClone()
			overlay.AddRelation(delta)

			plan, err := bindUnion(u, cert, overlay)
			if err != nil {
				t.Fatal(err)
			}
			inTo, inFrom := make(map[string]bool), make(map[string]bool)
			for _, a := range naiveRows(t, u, to) {
				inTo[a] = true
			}
			for _, a := range naiveRows(t, u, from) {
				inFrom[a] = true
			}
			got := make(map[string]bool)
			for _, a := range rows(plan.Answers(context.Background(), map[string]struct{}{d.Name: {}})) {
				if got[a] {
					t.Fatalf("Δ%s: candidate %s emitted twice", d.Name, a)
				}
				if !inTo[a] {
					t.Fatalf("Δ%s: candidate %s is not in Q(to)", d.Name, a)
				}
				got[a] = true
			}
			for a := range inTo {
				if !inFrom[a] && !got[a] {
					t.Fatalf("Δ%s: new answer %s missing from the candidates", d.Name, a)
				}
			}
		}
	}
}

// TestDrainMemoryIsPerBatch: with no answer set behind the stream, a full
// inline drain of Example 2 allocates a fixed number of bytes per answer —
// the batch buffers the emitted views live in — however large the output.
func TestDrainMemoryIsPerBatch(t *testing.T) {
	const budget = 32 // bytes per answer: 3 values × 8 B in a batch, plus slack
	u := cq.MustParse(example2)
	cert, _ := FindCertificate(u, nil)
	for _, width := range []int{200, 1600} {
		plan, err := bindUnion(u, cert, workload.Example2Instance(width, 3, 7))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		answers := 0
		for it := plan.Iterator(); ; answers++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		runtime.ReadMemStats(&after)
		perAnswer := float64(after.TotalAlloc-before.TotalAlloc) / float64(answers)
		t.Logf("width %d: %.1f B/answer over %d answers", width, perAnswer, answers)
		if perAnswer > budget {
			t.Errorf("width %d: drain allocated %.1f B per answer over %d answers, want ≤ %d", width, perAnswer, answers, budget)
		}
	}
}
