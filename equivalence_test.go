package ucq

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/fd"
	"repro/internal/workload"
)

// canonicalAnswers renders a plan's answer set in a canonical order for
// set comparison across engines (the naive evaluator and the certified
// pipeline order answers differently). It also checks the counting invariant for free: whenever the plan reports
// an exact count without enumerating, the enumeration must agree.
func canonicalAnswers(t *testing.T, p *Plan) string {
	t.Helper()
	rows := make([]string, 0, 64)
	it := p.Iterator()
	for {
		tup, ok := it.Next()
		if !ok {
			break
		}
		rows = append(rows, tup.String())
	}
	if err := AnswersErr(it); err != nil {
		t.Fatalf("stream ended with an error: %v", err)
	}
	sort.Strings(rows)
	// Engines must be duplicate-free individually; catch that here too.
	for i := 1; i < len(rows); i++ {
		if rows[i] == rows[i-1] {
			t.Fatalf("duplicate answer %s", rows[i])
		}
	}
	if n, ok := p.CountExact(); ok && n != int64(len(rows)) {
		t.Fatalf("CountExact = %d, enumeration produced %d answers", n, len(rows))
	}
	return strings.Join(rows, "\n")
}

// TestCrossEngineEquivalence is the randomized cross-engine harness: over
// 220 seeded random UCQs and instances, the naive evaluator and the
// certified pipeline must return identical, duplicate-free answer sets.
// The preparation is shared across binds through the Prepare/Bind split —
// the same reuse path the server's plan cache exercises — and each case
// additionally routes through a catalog BindDataset twice, checking that a
// bind-cache-served plan enumerates the same set as a freshly bound one.
func TestCrossEngineEquivalence(t *testing.T) {
	const cases = 220
	rng := rand.New(rand.NewSource(20260727))
	constantDelay := 0
	for i := 0; i < cases; i++ {
		u := workload.RandomUCQ(rng)
		rows := 8 + rng.Intn(20)
		width := int64(2 + rng.Intn(5))
		inst := workload.RandomForQuery(u, rows, width, rng.Int63())

		naive, err := NewPlan(u, inst, &PlanOptions{ForceNaive: true})
		if err != nil {
			t.Fatalf("case %d: naive plan: %v\n%s", i, err, u)
		}
		want := canonicalAnswers(t, naive)

		pq, err := Prepare(u, nil)
		if err != nil {
			t.Fatalf("case %d: prepare: %v\n%s", i, err, u)
		}
		if pq.Mode == ConstantDelay {
			constantDelay++
		}
		p, err := pq.Bind(inst)
		if err != nil {
			t.Fatalf("case %d: bind: %v\n%s", i, err, u)
		}
		if got := canonicalAnswers(t, p); got != want {
			t.Fatalf("case %d: %s mode disagrees with naive on\n%s\nnaive:\n%s\ngot:\n%s",
				i, p.Mode, u, want, got)
		}
		// The catalog arm: the same instance registered as a dataset and
		// bound through BindDataset must agree too — twice, so the second
		// (cache-served) bind is checked against the same oracle as the
		// first.
		cat := NewCatalog()
		ds, err := cat.Register("case", inst)
		if err != nil {
			t.Fatalf("case %d: register: %v", i, err)
		}
		for round, wantHit := range []bool{false, true} {
			p, err := pq.BindDataset(ds)
			if err != nil {
				t.Fatalf("case %d: BindDataset round %d: %v\n%s", i, round, err, u)
			}
			if p.BindCacheHit() != wantHit {
				t.Fatalf("case %d: BindDataset round %d: cache hit = %v, want %v",
					i, round, p.BindCacheHit(), wantHit)
			}
			if got := canonicalAnswers(t, p); got != want {
				t.Fatalf("case %d: BindDataset round %d (%s mode) disagrees with naive on\n%s\nnaive:\n%s\ngot:\n%s",
					i, round, p.Mode, u, want, got)
			}
		}
	}
	// With the fixed seed the generator certifies a healthy fraction of
	// unions; if this drops to zero the harness silently stopped testing
	// the Theorem 12 pipeline.
	if constantDelay < cases/10 {
		t.Errorf("only %d/%d cases ran constant-delay; generator or certifier regressed", constantDelay, cases)
	}
	t.Logf("cross-engine equivalence: %d cases, %d constant-delay, %d naive-only",
		cases, constantDelay, cases-constantDelay)
}

// TestCrossEngineEquivalenceCyclic runs the cross-engine harness over
// unions with a forced cyclic member — the non-free-connex side of the
// dichotomy, where evaluation must fall back off the Theorem 12 pipeline.
// The cyclic generator guarantees coverage the plain RandomUCQ sweep only
// reaches by accident.
func TestCrossEngineEquivalenceCyclic(t *testing.T) {
	const cases = 120
	rng := rand.New(rand.NewSource(20260807))
	cyclicMembers := 0
	for i := 0; i < cases; i++ {
		u := workload.RandomCyclicUCQ(rng)
		for _, q := range u.CQs {
			if ClassifyCQ(q) == Cyclic {
				cyclicMembers++
			}
		}
		rows := 8 + rng.Intn(20)
		width := int64(2 + rng.Intn(4))
		inst := workload.RandomForQuery(u, rows, width, rng.Int63())

		naive, err := NewPlan(u, inst, &PlanOptions{ForceNaive: true})
		if err != nil {
			t.Fatalf("case %d: naive plan: %v\n%s", i, err, u)
		}
		want := canonicalAnswers(t, naive)

		pq, err := Prepare(u, nil)
		if err != nil {
			t.Fatalf("case %d: prepare: %v\n%s", i, err, u)
		}
		p, err := pq.Bind(inst)
		if err != nil {
			t.Fatalf("case %d: bind: %v\n%s", i, err, u)
		}
		if got := canonicalAnswers(t, p); got != want {
			t.Fatalf("case %d: %s mode disagrees with naive on\n%s\nnaive:\n%s\ngot:\n%s",
				i, p.Mode, u, want, got)
		}
	}
	if cyclicMembers == 0 {
		t.Error("no cyclic member CQs generated; RandomCyclicUCQ regressed")
	}
	t.Logf("cyclic arm: %d cases, %d cyclic member CQs", cases, cyclicMembers)
}

// TestCrossEngineEquivalenceFDs is the FD-aware arm of the cross-engine
// harness (Remark 2 / fd.go): over seeded random unions it draws random
// functional dependencies, repairs the instance to satisfy them, and for
// every member CQ whose FD-extension is free-connex checks that
// enumeration through the extension returns exactly the naive evaluator's
// answer set. Cases where the extension strictly widens the head exercise
// the free-closure machinery for real: without the FDs those queries could
// not take the constant-delay route.
func TestCrossEngineEquivalenceFDs(t *testing.T) {
	const cases = 150
	rng := rand.New(rand.NewSource(20260728))
	enumerated, widened := 0, 0
	for i := 0; i < cases; i++ {
		u := workload.RandomUCQ(rng)
		fds := fd.RandomSet(rng, u)
		if len(fds.All()) == 0 {
			continue
		}
		rows := 8 + rng.Intn(20)
		width := int64(2 + rng.Intn(5))
		inst := fds.Enforce(workload.RandomForQuery(u, rows, width, rng.Int63()))
		if err := fds.Holds(inst); err != nil {
			t.Fatalf("case %d: EnforceFDs left a violation: %v", i, err)
		}
		for _, q := range u.CQs {
			ext, ok := ClassifyCQWithFDs(q, fds)
			if !ok {
				continue
			}
			if len(ext.Head) > len(q.Head) {
				widened++
			}
			it, err := EnumerateCQWithFDs(q, fds, inst)
			if err != nil {
				t.Fatalf("case %d: EnumerateCQWithFDs(%s): %v", i, q, err)
			}
			var got []string
			for {
				tup, ok := it.Next()
				if !ok {
					break
				}
				got = append(got, tup.String())
			}
			sort.Strings(got)
			for k := 1; k < len(got); k++ {
				if got[k] == got[k-1] {
					t.Fatalf("case %d: FD enumeration of %s emitted duplicate %s", i, q, got[k])
				}
			}
			wantRel, err := baseline.EvalCQ(q, inst)
			if err != nil {
				t.Fatalf("case %d: naive eval of %s: %v", i, q, err)
			}
			var want []string
			for _, row := range wantRel.SortedRows() {
				want = append(want, row.String())
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("case %d: FD enumeration of %s disagrees with naive\nfds: %v\ngot:  %v\nwant: %v",
					i, q, fds.All(), got, want)
			}
			enumerated++
		}
	}
	if enumerated == 0 {
		t.Error("no case took the FD-extension route; generator or classifier regressed")
	}
	t.Logf("FD arm: %d member CQs enumerated through FD-extensions, %d with strictly widened heads", enumerated, widened)
}

// TestCrossEngineEquivalenceBooleanAndEmpty pins the edge cases the random
// sweep hits only occasionally: boolean unions and empty instances.
func TestCrossEngineEquivalenceBooleanAndEmpty(t *testing.T) {
	u := MustParse(`
		Q1() <- R1(x,y), R2(y,z).
		Q2() <- S1(x).
	`)
	inst := NewInstance()
	for _, d := range u.Schema() {
		inst.AddRelation(NewRelation(d.Name, d.Arity))
	}
	// Empty instance: every engine returns the empty set.
	for _, opts := range []*PlanOptions{{ForceNaive: true}, nil} {
		p, err := NewPlan(u, inst, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if n := p.Count(); n != 0 {
			t.Errorf("opts %+v: %d answers on empty instance", opts, n)
		}
	}
	// Non-empty: the boolean union has exactly one (empty-tuple) answer.
	inst.Relation("S1").AppendInts(1)
	for _, opts := range []*PlanOptions{{ForceNaive: true}, nil} {
		p, err := NewPlan(u, inst, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if n := p.Count(); n != 1 {
			t.Errorf("opts %+v: boolean union returned %d answers, want 1", opts, n)
		}
	}
}

// TestCrossEngineEquivalenceRankRuleEdges adds fixed rows to the
// cross-engine table for the shapes where deduplicating by membership
// could go wrong: nullary heads (every answer is the same empty tuple), a
// repeated head variable, a member overlapping two earlier ones, and a
// member whose answers an earlier one wholly contains on the data (S ⊆ R)
// though not as a query, so it is planned and every answer it finds is
// skipped. Every certified stream must equal the naive answer set,
// duplicate-free.
func TestCrossEngineEquivalenceRankRuleEdges(t *testing.T) {
	const boolean = `
		Q1() <- R(x,y), T(y,z).
		Q2() <- S(x,y).
	`
	cases := []struct {
		name  string
		query string
		rels  map[string][][]int64
		want  int
	}{
		{"boolean-both-empty", boolean, map[string][][]int64{"R": {{1, 2}}, "T": {{3, 4}}}, 0},
		{"boolean-first-only", boolean, map[string][][]int64{"R": {{1, 2}, {5, 2}}, "T": {{2, 4}, {2, 6}}}, 1},
		{"boolean-second-only", boolean, map[string][][]int64{"R": {{1, 2}}, "T": {{3, 4}}, "S": {{7, 7}, {8, 8}}}, 1},
		{"boolean-both", boolean, map[string][][]int64{"R": {{1, 2}}, "T": {{2, 4}}, "S": {{7, 7}, {8, 8}}}, 1},
		{"repeated-head-variable", `
			Q1(x,x,y) <- R(x,y).
			Q2(x,z,y) <- S(x,z), T(z,y).
		`, map[string][][]int64{
			"R": {{1, 2}, {2, 2}, {3, 4}},
			"S": {{1, 1}, {2, 1}, {3, 3}, {5, 5}},
			"T": {{1, 2}, {3, 4}, {5, 6}},
		}, 5},
		{"third-member-overlaps-both", `
			Q1(x,y) <- R(x,y).
			Q2(x,y) <- S(x,y).
			Q3(x,y) <- T(x,y).
		`, map[string][][]int64{
			"R": {{1, 1}, {2, 2}, {3, 3}},
			"S": {{3, 3}, {4, 4}, {5, 5}},
			"T": {{1, 1}, {3, 3}, {5, 5}, {6, 6}},
		}, 6},
		{"contained-member-kept", `
			Q1(x,y) <- R(x,y).
			Q2(x,y) <- S(x,y).
		`, map[string][][]int64{
			"R": {{1, 2}, {2, 3}, {3, 4}},
			"S": {{2, 3}, {3, 4}},
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := MustParse(tc.query)
			inst := NewInstance()
			for _, d := range u.Schema() {
				r := NewRelation(d.Name, d.Arity)
				for _, row := range tc.rels[d.Name] {
					r.AppendInts(row...)
				}
				inst.AddRelation(r)
			}
			naive, err := NewPlan(u, inst, &PlanOptions{ForceNaive: true})
			if err != nil {
				t.Fatal(err)
			}
			want := canonicalAnswers(t, naive)
			if n := naive.Count(); n != tc.want {
				t.Fatalf("naive oracle has %d answers, row expects %d", n, tc.want)
			}
			pq, err := Prepare(u, nil)
			if err != nil {
				t.Fatal(err)
			}
			if pq.Mode != ConstantDelay {
				t.Fatalf("row is not certified; it would not exercise the rank rule")
			}
			if len(pq.Evaluated.CQs) != len(u.CQs) {
				t.Fatalf("planned %d of %d members; the row needs them all", len(pq.Evaluated.CQs), len(u.CQs))
			}
			p, err := pq.Bind(inst)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonicalAnswers(t, p); got != want {
				t.Fatalf("certified stream disagrees with naive\nnaive:\n%s\ngot:\n%s", want, got)
			}
			if n := p.Count(); n != tc.want {
				t.Fatalf("%d answers, want %d", n, tc.want)
			}
		})
	}
}

// TestCrossEngineEquivalenceBagsAndRepeatedVariables adds the rows where
// binding may not share stored rows as they are: a stored relation holding
// a row twice, a set that an append turns into a bag, R(x,x) atoms over a
// set and over a bag, and nullary and empty relations. Every row goes
// through a dataset, so the bind after AppendRows sees a relation whose
// duplicate-free fact was reset. Every certified stream must equal the
// naive answer set, duplicate-free.
func TestCrossEngineEquivalenceBagsAndRepeatedVariables(t *testing.T) {
	const example2 = `
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`
	const selfEqual = `
		Q1(x,y) <- R(x,x), S(x,y).
		Q2(x,y) <- T(x,y).
	`
	// Boolean members project every variable away: their working relations
	// end up nullary, holding at most the one empty row.
	const boolean = `
		Q1() <- R(x,y), T(y,z).
		Q2() <- S(x,y).
	`
	chain := map[string][][]int64{
		"R1": {{1, 2}, {4, 2}, {2, 3}},
		"R2": {{2, 3}, {3, 5}},
		"R3": {{3, 5}, {3, 6}, {5, 7}},
	}
	withDuplicates := map[string][][]int64{
		"R1": {{1, 2}, {4, 2}, {1, 2}, {2, 3}, {1, 2}},
		"R2": {{2, 3}, {3, 5}, {2, 3}},
		"R3": {{3, 5}, {3, 6}, {5, 7}},
	}
	cases := []struct {
		name  string
		query string
		rels  map[string][][]int64
		// bag names a relation that must not read as a set when first bound.
		bag string
		// appended goes through Dataset.AppendRows after the first round.
		appended    map[string][][]int64
		want, want2 int
	}{
		{"example2-set", example2, chain, "", nil, 8, 0},
		{"example2-stored-duplicates", example2, withDuplicates, "R1", nil, 8, 0},
		{"example2-append-present-row", example2, chain, "", map[string][][]int64{"R2": {{2, 3}}, "R3": {{5, 8}}}, 8, 9},
		{"self-equal-over-set", selfEqual, map[string][][]int64{
			"R": {{1, 1}, {1, 2}, {3, 3}, {4, 5}},
			"S": {{1, 7}, {3, 8}, {4, 9}},
			"T": {{1, 7}, {6, 6}},
		}, "", map[string][][]int64{"R": {{4, 4}}}, 3, 4},
		{"self-equal-over-bag", selfEqual, map[string][][]int64{
			"R": {{1, 1}, {1, 2}, {1, 1}, {3, 3}, {3, 3}},
			"S": {{1, 7}, {3, 8}, {3, 8}},
			"T": {{1, 7}, {6, 6}, {6, 6}},
		}, "R", nil, 3, 0},
		{"nullary-over-bag", boolean, map[string][][]int64{"R": {{1, 2}, {1, 2}}, "T": {{2, 4}, {2, 4}, {2, 5}}}, "R", nil, 1, 0},
		{"empty-relations-then-duplicate-append", boolean, map[string][][]int64{"R": {{1, 2}}},
			"", map[string][][]int64{"S": {{7, 7}, {7, 7}}}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := MustParse(tc.query)
			inst := NewInstance()
			for _, d := range u.Schema() {
				r := NewRelation(d.Name, d.Arity)
				for _, row := range tc.rels[d.Name] {
					r.AppendInts(row...)
				}
				inst.AddRelation(r)
			}
			if tc.bag != "" && inst.Relation(tc.bag).IsSet() {
				t.Fatalf("%s reads as a set; the row would not exercise the copying path", tc.bag)
			}
			pq, err := Prepare(u, nil)
			if err != nil {
				t.Fatal(err)
			}
			if pq.Mode != ConstantDelay {
				t.Fatalf("row is not certified; it would not exercise the bind")
			}
			ds, err := NewCatalog().Register("case", inst)
			if err != nil {
				t.Fatal(err)
			}
			check := func(want int) {
				t.Helper()
				naive, err := NewPlan(u, ds.Instance(), &PlanOptions{ForceNaive: true})
				if err != nil {
					t.Fatal(err)
				}
				oracle := canonicalAnswers(t, naive)
				if n := naive.Count(); n != want {
					t.Fatalf("naive oracle has %d answers, row expects %d", n, want)
				}
				p, err := pq.BindDataset(ds)
				if err != nil {
					t.Fatal(err)
				}
				if got := canonicalAnswers(t, p); got != oracle {
					t.Fatalf("v%d disagrees with naive\nnaive:\n%s\ngot:\n%s", ds.Version(), oracle, got)
				}
			}
			check(tc.want)
			if tc.appended == nil {
				return
			}
			if _, err := ds.AppendRows(tc.appended); err != nil {
				t.Fatal(err)
			}
			check(tc.want2)
		})
	}
}

// TestInlineEnumerationIsDeterministic: the merge runs its tasks in order
// on the caller's goroutine — member 0, then each later member minus the
// earlier ones — so two drains of one Example 2 plan, and a drain of a
// second bind of the same instance, yield the identical sequence.
func TestInlineEnumerationIsDeterministic(t *testing.T) {
	u := MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`)
	inst := workload.Example2Instance(100, 3, 7)
	sequence := func(p *Plan) []string {
		var rows []string
		for tup := range p.All(nil) {
			rows = append(rows, tup.String())
		}
		return rows
	}
	p, err := NewPlan(u, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := NewPlan(u, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sequence(p)
	if len(want) < 1000 {
		t.Fatalf("Example 2 instance yields only %d answers", len(want))
	}
	for name, got := range map[string][]string{"second drain": sequence(p), "second bind": sequence(again)} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: answer %d = %s, want %s", name, i, got[i], want[i])
			}
		}
	}
}
