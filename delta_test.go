package ucq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// deltaJoinQuery is the two-atom join used across the delta tests. The
// full head keeps it free-connex (projecting y away would make it the
// classic intractable matrix-multiplication query).
const deltaJoinQuery = `Q(x,y,z) <- R(x,y), S(y,z).`

// deltaJoinInstance builds a small R ⋈ S instance.
func deltaJoinInstance() *Instance {
	inst := NewInstance()
	r := NewRelation("R", 2)
	r.AppendInts(1, 10)
	r.AppendInts(2, 20)
	s := NewRelation("S", 2)
	s.AppendInts(10, 100)
	s.AppendInts(20, 200)
	inst.AddRelation(r)
	inst.AddRelation(s)
	return inst
}

// answerKeys drains the plan's full answer set into a string set.
func answerKeys(t *testing.T, p *Plan) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	for tup := range p.All(context.Background()) {
		k := fmt.Sprint(tup)
		if out[k] {
			t.Fatalf("duplicate answer %s in full enumeration", k)
		}
		out[k] = true
	}
	return out
}

// setDiff returns the keys of b not in a.
func setDiff(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for k := range b {
		if !a[k] {
			out[k] = true
		}
	}
	return out
}

// collectDelta drains DeltaAnswersContext into a string set, failing on
// duplicates.
func collectDelta(t *testing.T, p *Plan, from, to Version) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	err := p.DeltaAnswersContext(context.Background(), from, to, func(tup Tuple) bool {
		k := fmt.Sprint(tup)
		if out[k] {
			t.Fatalf("delta answer %s emitted twice", k)
		}
		out[k] = true
		return true
	})
	if err != nil {
		t.Fatalf("DeltaAnswersContext(%d, %d): %v", from, to, err)
	}
	return out
}

// sameSet fails the test unless got and want hold the same keys.
func sameSet(t *testing.T, label string, got, want map[string]bool) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Errorf("%s: missing %s", label, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: unexpected %s", label, k)
		}
	}
}

func deltaModes() map[string]*PlanOptions {
	return map[string]*PlanOptions{
		"certified": nil,
		"naive":     {ForceNaive: true},
	}
}

func TestDeltaAnswersBasic(t *testing.T) {
	for mode, opts := range deltaModes() {
		t.Run(mode, func(t *testing.T) {
			cat := NewCatalog()
			ds, err := cat.Register("d", deltaJoinInstance())
			if err != nil {
				t.Fatal(err)
			}
			pq, err := Prepare(MustParse(deltaJoinQuery), opts)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "certified" && pq.Mode != ConstantDelay {
				t.Fatal("join should certify constant-delay")
			}
			p1, err := pq.BindDataset(ds)
			if err != nil {
				t.Fatal(err)
			}
			oldAnswers := answerKeys(t, p1)

			// One appended R row joins the existing S, one new S row joins
			// the existing R, and one appended pair joins only each other.
			if _, err := ds.AppendRows(map[string][][]int64{
				"R": {{3, 20}, {4, 40}},
				"S": {{40, 400}},
			}); err != nil {
				t.Fatal(err)
			}
			pHead, err := pq.BindDataset(ds)
			if err != nil {
				t.Fatal(err)
			}
			newAnswers := answerKeys(t, pHead)

			got := collectDelta(t, p1, 1, 2)
			sameSet(t, "delta(1,2)", got, setDiff(oldAnswers, newAnswers))
			if len(got) == 0 {
				t.Fatal("append should have created answers")
			}

			// An append creating no answers yields an empty delta.
			if _, err := ds.AppendRows(map[string][][]int64{"R": {{9, 999}}}); err != nil {
				t.Fatal(err)
			}
			p2, err := pq.BindDataset(ds)
			if err != nil {
				t.Fatal(err)
			}
			if d := collectDelta(t, p2, 2, 3); len(d) != 0 {
				t.Errorf("no-op append produced delta %v", d)
			}

			// Empty window is a no-op.
			if d := collectDelta(t, p1, 1, 1); len(d) != 0 {
				t.Errorf("empty window produced delta %v", d)
			}
		})
	}
}

func TestDeltaAnswersSelfJoin(t *testing.T) {
	// R self-joined: the overlay rewriting cannot see new⋈old pairs within
	// R, so the implementation must fall back to full evaluation — the
	// answer (1,3) pairs the old (1,2) with the appended (2,3).
	for mode, opts := range deltaModes() {
		t.Run(mode, func(t *testing.T) {
			cat := NewCatalog()
			inst := NewInstance()
			r := NewRelation("R", 2)
			r.AppendInts(1, 2)
			inst.AddRelation(r)
			ds, err := cat.Register("d", inst)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := Prepare(MustParse(`Q(x,y,z) <- R(x,y), R(y,z).`), opts)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "certified" && pq.Mode != ConstantDelay {
				t.Fatal("full-head self-join should certify constant-delay")
			}
			p1, err := pq.BindDataset(ds)
			if err != nil {
				t.Fatal(err)
			}
			oldAnswers := answerKeys(t, p1)
			if _, err := ds.AppendRows(map[string][][]int64{"R": {{2, 3}}}); err != nil {
				t.Fatal(err)
			}
			pHead, err := pq.BindDataset(ds)
			if err != nil {
				t.Fatal(err)
			}
			got := collectDelta(t, p1, 1, 2)
			sameSet(t, "self-join delta", got, setDiff(oldAnswers, answerKeys(t, pHead)))
			if !got[fmt.Sprint(Tuple{V(1), V(2), V(3)})] {
				t.Errorf("delta %v should contain the new⋈old answer (1,2,3)", got)
			}
		})
	}
}

// TestDeltaAnswersBooleanUnion: under a nullary head every answer is the
// empty tuple, so a window's delta is that one tuple when the union turns
// true in it and empty otherwise — even when two appended relations each
// make a member true, or a later append makes a second member true.
func TestDeltaAnswersBooleanUnion(t *testing.T) {
	const query = `
		Q1() <- R(x,y), S(y,z).
		Q2() <- T(x,x).
	`
	empty := fmt.Sprint(Tuple{})
	for mode, opts := range deltaModes() {
		t.Run(mode, func(t *testing.T) {
			inst := NewInstance()
			for _, name := range []string{"R", "S", "T"} {
				inst.AddRelation(NewRelation(name, 2))
			}
			inst.Relation("R").AppendInts(1, 2)
			inst.Relation("T").AppendInts(5, 6)
			ds, err := NewCatalog().Register("d", inst)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := Prepare(MustParse(query), opts)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "certified" && pq.Mode != ConstantDelay {
				t.Fatal("boolean union should certify constant-delay")
			}
			p1, err := pq.BindDataset(ds)
			if err != nil {
				t.Fatal(err)
			}
			if got := answerKeys(t, p1); len(got) != 0 {
				t.Fatalf("union true before any append: %v", got)
			}

			// Both members turn true in one window, through different
			// relations.
			if _, err := ds.AppendRows(map[string][][]int64{"S": {{2, 9}}, "T": {{7, 7}}}); err != nil {
				t.Fatal(err)
			}
			p2, err := pq.BindDataset(ds)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{empty: true}
			sameSet(t, "delta(1,2)", collectDelta(t, p1, 1, 2), want)

			// Already true: more derivations add no answer.
			if _, err := ds.AppendRows(map[string][][]int64{"R": {{8, 2}}, "T": {{3, 3}}}); err != nil {
				t.Fatal(err)
			}
			if d := collectDelta(t, p2, 2, 3); len(d) != 0 {
				t.Errorf("delta(2,3) of a union already true = %v", d)
			}
			sameSet(t, "delta(1,3)", collectDelta(t, p1, 1, 3), want)
		})
	}
}

func TestDeltaAnswersRandomized(t *testing.T) {
	const appends = 8
	rng := rand.New(rand.NewSource(7))
	for mode, opts := range deltaModes() {
		t.Run(mode, func(t *testing.T) {
			cat := NewCatalog()
			ds, err := cat.Register("d", deltaJoinInstance())
			if err != nil {
				t.Fatal(err)
			}
			pq, err := Prepare(MustParse(deltaJoinQuery), opts)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := pq.BindDataset(ds)
			if err != nil {
				t.Fatal(err)
			}
			live := answerKeys(t, plan)
			cur := plan.DatasetVersion()
			for i := 0; i < appends; i++ {
				rows := map[string][][]int64{}
				for _, rel := range []string{"R", "S"} {
					n := rng.Intn(4)
					for j := 0; j < n; j++ {
						rows[rel] = append(rows[rel], []int64{rng.Int63n(30), rng.Int63n(30)})
					}
				}
				v, err := ds.AppendRows(rows)
				if err != nil {
					t.Fatal(err)
				}
				for k := range collectDelta(t, plan, cur, v) {
					if live[k] {
						t.Fatalf("append %d: delta re-emitted %s", i, k)
					}
					live[k] = true
				}
				plan, err = pq.BindDataset(ds)
				if err != nil {
					t.Fatal(err)
				}
				cur = v
			}
			head, err := pq.BindDataset(ds)
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, "live set after appends", live, answerKeys(t, head))
		})
	}
}

func TestDeltaAnswersResume(t *testing.T) {
	// A plan bound at one version computes deltas for windows starting at
	// another, as long as the log covers the window start: the old state is
	// rebound internally from the logged snapshot.
	cat := NewCatalog()
	ds, err := cat.Register("d", deltaJoinInstance())
	if err != nil {
		t.Fatal(err)
	}
	pq, err := Prepare(MustParse(deltaJoinQuery), nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	v1Answers := answerKeys(t, p1)
	if _, err := ds.AppendRows(map[string][][]int64{"R": {{5, 20}}}); err != nil {
		t.Fatal(err)
	}
	p2, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	v2Answers := answerKeys(t, p2)
	if _, err := ds.AppendRows(map[string][][]int64{"S": {{20, 777}}}); err != nil {
		t.Fatal(err)
	}
	p3, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	v3Answers := answerKeys(t, p3)

	// Head-bound plan, window (1, 3]: internal rebind at the logged v1.
	sameSet(t, "delta(1,3) from head plan", collectDelta(t, p3, 1, 3), setDiff(v1Answers, v3Answers))
	// Stale plan, window (2, 3]: internal rebind at the logged v2.
	sameSet(t, "delta(2,3) from v1 plan", collectDelta(t, p1, 2, 3), setDiff(v2Answers, v3Answers))
}

func TestDeltaAnswersUnavailable(t *testing.T) {
	// Compaction past the log cap and Replace both invalidate old windows.
	cat := NewCatalog()
	ds, err := cat.Register("d", deltaJoinInstance())
	if err != nil {
		t.Fatal(err)
	}
	pq, err := Prepare(MustParse(deltaJoinQuery), nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AppendRows(map[string][][]int64{"R": {{50, 20}}}); err != nil {
		t.Fatal(err)
	}
	p2, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	v2Answers := answerKeys(t, p2)
	for i := 0; i < appendLogSize; i++ {
		if _, err := ds.AppendRows(map[string][][]int64{"R": {{int64(60 + i), 20}}}); err != nil {
			t.Fatal(err)
		}
	}
	head := ds.Version()
	// The log retains appendLogSize appends: windows from v2 on; (1, head]
	// is compacted away.
	if err := p1.DeltaAnswersContext(context.Background(), 1, head, func(Tuple) bool { return true }); !errors.Is(err, ErrDeltaUnavailable) {
		t.Fatalf("compacted window: err = %v, want ErrDeltaUnavailable", err)
	}
	// The retained window still works, even from the stale v1 plan.
	pHead, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, "retained window (2,head]",
		collectDelta(t, p1, 2, head),
		setDiff(v2Answers, answerKeys(t, pHead)))

	if _, err := ds.Replace(deltaJoinInstance()); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AppendRows(map[string][][]int64{"R": {{6, 20}}}); err != nil {
		t.Fatal(err)
	}
	if err := pHead.DeltaAnswersContext(context.Background(), head, head+2, func(Tuple) bool { return true }); !errors.Is(err, ErrDeltaUnavailable) {
		t.Fatalf("window across a Replace: err = %v, want ErrDeltaUnavailable", err)
	}

	// Inline-instance binds have no dataset log at all.
	pInline, err := pq.Bind(deltaJoinInstance())
	if err != nil {
		t.Fatal(err)
	}
	if err := pInline.DeltaAnswersContext(context.Background(), 0, 1, func(Tuple) bool { return true }); !errors.Is(err, ErrDeltaUnavailable) {
		t.Fatalf("inline bind: err = %v, want ErrDeltaUnavailable", err)
	}
}

func TestCatalogSubscribeNotify(t *testing.T) {
	cat := NewCatalog()
	ds, err := cat.Register("d", deltaJoinInstance())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Subscribe("missing"); err == nil {
		t.Fatal("subscribing to a missing dataset should fail")
	}
	sub, err := cat.Subscribe("d")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := ds.AppendRows(map[string][][]int64{"R": {{7, 20}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-sub.Updates():
		if v != 2 {
			t.Errorf("wake-up version = %d, want 2", v)
		}
	default:
		t.Fatal("append did not wake the subscription")
	}
	// Coalescing: two appends with no consumption leave one pending signal.
	for i := 0; i < 2; i++ {
		if _, err := ds.AppendRows(map[string][][]int64{"R": {{int64(30 + i), 20}}}); err != nil {
			t.Fatal(err)
		}
	}
	<-sub.Updates()
	select {
	case v, ok := <-sub.Updates():
		t.Fatalf("expected coalesced wake-ups, got extra (%d, %v)", v, ok)
	default:
	}
	// Close is idempotent and closes the channel.
	sub.Close()
	sub.Close()
	if _, ok := <-sub.Updates(); ok {
		t.Error("Updates should be closed after Close")
	}
	// Notify after close must not panic.
	if _, err := ds.AppendRows(map[string][][]int64{"R": {{8, 20}}}); err != nil {
		t.Fatal(err)
	}
}

// The maintenance speedup test exercises the incremental-maintenance
// claim: after a small append, enumerating exactly the new answers via the
// semi-naive delta path (Plan.DeltaAnswers) must beat re-enumerating the
// full answer set at the head version by a wide margin. The workload is
// the full-head join deltaJoinQuery (free-connex, so the delta path runs
// through the certified constant-time old-membership filter): a large R, a
// small S, every R row matching exactly one S row, and an append that adds
// a handful of R rows. The delta arm touches the appended rows plus S; the
// full arm pays for every answer.

const (
	maintenanceBaseRows   = 20000 // R rows in the registered dataset
	maintenanceFanout     = 200   // distinct join keys (= S rows)
	maintenanceAppendRows = 16    // R rows added by the maintained append
)

// maintenanceDataset registers the base instance in a fresh catalog, binds
// the plan at the registration version, appends maintenanceAppendRows
// rows, and returns the prepared query, the bound plan, the dataset and
// the append's version window.
func maintenanceDataset(tb testing.TB) (*PreparedQuery, *Plan, *Dataset, Version, Version) {
	tb.Helper()
	inst := NewInstance()
	r := NewRelation("R", 2)
	for i := int64(0); i < maintenanceBaseRows; i++ {
		r.AppendInts(i, i%maintenanceFanout)
	}
	s := NewRelation("S", 2)
	for j := int64(0); j < maintenanceFanout; j++ {
		s.AppendInts(j, j+1_000_000)
	}
	inst.AddRelation(r)
	inst.AddRelation(s)

	pq, err := Prepare(MustParse(deltaJoinQuery), nil)
	if err != nil {
		tb.Fatal(err)
	}
	cat := NewCatalog()
	ds, err := cat.Register("bench", inst)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := pq.BindDataset(ds)
	if err != nil {
		tb.Fatal(err)
	}
	if plan.Mode != ConstantDelay {
		tb.Fatalf("plan mode = %v, want ConstantDelay (full-head join must certify)", plan.Mode)
	}
	rows := make([][]int64, maintenanceAppendRows)
	for k := range rows {
		rows[k] = []int64{maintenanceBaseRows + int64(k), int64(k) % maintenanceFanout}
	}
	to, err := ds.AppendRows(map[string][][]int64{"R": rows})
	if err != nil {
		tb.Fatal(err)
	}
	return pq, plan, ds, Version(1), Version(to)
}

// maintenanceDelta runs one delta maintenance pass, failing unless it
// yields exactly the appended answers.
func maintenanceDelta(tb testing.TB, plan *Plan, from, to Version) {
	n := 0
	err := plan.DeltaAnswersContext(context.Background(), from, to, func(Tuple) bool {
		n++
		return true
	})
	if err != nil {
		tb.Fatal(err)
	}
	if n != maintenanceAppendRows {
		tb.Fatalf("delta answers = %d, want %d", n, maintenanceAppendRows)
	}
}

// maintenanceFull runs one full re-evaluation at the head version — bind
// (served from the bind cache after the first call, which is the cheapest
// honest baseline: a resyncing subscriber pays at least this) plus a drain
// of the whole answer set.
func maintenanceFull(tb testing.TB, pq *PreparedQuery, ds *Dataset) {
	plan, err := pq.BindDataset(ds)
	if err != nil {
		tb.Fatal(err)
	}
	const want = maintenanceBaseRows + maintenanceAppendRows
	n := 0
	for range plan.All(context.Background()) {
		n++
	}
	if n != want {
		tb.Fatalf("full answers = %d, want %d", n, want)
	}
}

// TestDeltaMaintenanceSpeedup pins the acceptance floor: the delta
// maintenance pass must run at least 5× faster than the full
// re-evaluation it replaces. The real ratio is orders of magnitude (the
// delta arm's work is proportional to the appended rows plus S, not to
// the answer set), so 5× leaves generous headroom for noisy CI boxes.
func TestDeltaMaintenanceSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	pq, plan, ds, from, to := maintenanceDataset(t)
	maintenanceFull(t, pq, ds) // warm the bind cache

	deltaRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			maintenanceDelta(b, plan, from, to)
		}
	})
	fullRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			maintenanceFull(b, pq, ds)
		}
	})
	deltaNs := float64(deltaRes.NsPerOp())
	fullNs := float64(fullRes.NsPerOp())
	t.Logf("delta: %.0f ns/op, full re-eval: %.0f ns/op (%.1fx)", deltaNs, fullNs, fullNs/deltaNs)
	if deltaNs*5 > fullNs {
		t.Errorf("delta maintenance is only %.1fx faster than full re-evaluation, want >= 5x", fullNs/deltaNs)
	}
}
