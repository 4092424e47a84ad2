// Benchmarks: one per reproduced table/figure (see DESIGN.md §4 and
// EXPERIMENTS.md). Run with:
//
//	go test -bench=. -benchmem
//
// E1–E4 exercise the upper bounds (constant-delay machinery), E5–E8 the
// lower-bound reductions, E9 the classifier, E10 the Cheater's Lemma
// combinator, F1–F2 the structural figure constructions. The Ablation*
// benchmarks quantify the design choices called out in DESIGN.md.
package ucq

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/matrix"
	"repro/internal/paper"
	"repro/internal/reduction"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// drain exhausts an iterator, returning the answer count.
func drain(b *testing.B, it Answers) int {
	b.Helper()
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			return n
		}
		n++
	}
}

// BenchmarkE1FreeConnexCQ: CDY preparation + enumeration of a free-connex
// CQ (Theorem 3(1)); answers/op reported as a custom metric.
func BenchmarkE1FreeConnexCQ(b *testing.B) {
	q := MustParseCQ("Q(x,y,w) <- R1(x,y), R2(y,w).")
	inst := workload.Chain([]string{"R1", "R2"}, []int{2, 2}, 5000, 2, 1)
	b.ResetTimer()
	answers := 0
	for i := 0; i < b.N; i++ {
		plan, err := yannakakis.Prepare(q, inst, nil)
		if err != nil {
			b.Fatal(err)
		}
		it := plan.Iterator()
		n := 0
		for it.Next() {
			n++
		}
		answers = n
	}
	b.ReportMetric(float64(answers), "answers/op")
}

// BenchmarkE2UnionTractable: Algorithm 1 on a union of two free-connex
// CQs (Theorem 4).
func BenchmarkE2UnionTractable(b *testing.B) {
	u := MustParse(`
		Q1(x,y,w) <- R1(x,y), R2(y,w).
		Q2(x,y,w) <- R2(x,y), R3(y,w).
	`)
	inst := workload.Chain([]string{"R1", "R2", "R3"}, []int{2, 2, 2}, 5000, 2, 2)
	b.ResetTimer()
	answers := 0
	for i := 0; i < b.N; i++ {
		it, err := core.NewAlgorithmOneUnion(u, inst)
		if err != nil {
			b.Fatal(err)
		}
		answers = drain(b, it)
	}
	b.ReportMetric(float64(answers), "answers/op")
}

// BenchmarkE3Example2Union: the Theorem 12 pipeline on Example 2, against
// the naive evaluator.
func BenchmarkE3Example2Union(b *testing.B) {
	u := MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`)
	inst := workload.Example2Instance(1500, 3, 1)
	cert, ok := core.FindCertificate(u, nil)
	if !ok {
		b.Fatal("no certificate")
	}
	b.Run("constant-delay", func(b *testing.B) {
		answers := 0
		for i := 0; i < b.N; i++ {
			plan, err := core.NewUnionPlan(u, cert, inst)
			if err != nil {
				b.Fatal(err)
			}
			answers = drain(b, plan.Iterator())
		}
		b.ReportMetric(float64(answers), "answers/op")
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.EvalUCQ(u, inst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4Example13Recursive: the recursive-extension pipeline on
// Example 13 (three intractable CQs).
func BenchmarkE4Example13Recursive(b *testing.B) {
	u := MustParse(`
		Q1(x,y,v,u) <- R1(x,z1), R2(z1,z2), R3(z2,z3), R4(z3,y), R5(y,v,u).
		Q2(x,y,v,u) <- R1(x,y), R2(y,v), R3(v,z1), R4(z1,u), R5(u,t1,t2).
		Q3(x,y,v,u) <- R1(x,z1), R2(z1,y), R3(y,v), R4(v,u), R5(u,t1,t2).
	`)
	inst := workload.Example13Instance(800, 2, 1)
	cert, ok := core.FindCertificate(u, nil)
	if !ok {
		b.Fatal("no certificate")
	}
	b.ResetTimer()
	answers := 0
	for i := 0; i < b.N; i++ {
		plan, err := core.NewUnionPlan(u, cert, inst)
		if err != nil {
			b.Fatal(err)
		}
		answers = drain(b, plan.Iterator())
	}
	b.ReportMetric(float64(answers), "answers/op")
}

// BenchmarkE5MatMulShape: Boolean matrix multiplication directly vs
// through the Lemma 25 encoding of Example 20.
func BenchmarkE5MatMulShape(b *testing.B) {
	u := MustParse(`
		Q1(x,y,v) <- R1(x,z), R2(z,y), R3(y,v), R4(v,w).
		Q2(x,y,v) <- R1(w,v), R2(v,y), R3(y,z), R4(z,x).
	`)
	enc, err := reduction.NewMatMulEncoding(u)
	if err != nil {
		b.Fatal(err)
	}
	n := 64
	a := matrix.Random(n, 0.4, 1)
	bm := matrix.Random(n, 0.4, 2)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Multiply(bm)
		}
	})
	b.Run("via-ucq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst := enc.Instance(a, bm)
			answers, err := baseline.EvalUCQ(u, inst)
			if err != nil {
				b.Fatal(err)
			}
			got := enc.DecodeProduct(answers, n)
			if !got.Equal(a.Multiply(bm)) {
				b.Fatal("product mismatch")
			}
		}
	})
}

// BenchmarkE6TriangleDecide: triangle detection directly vs through the
// Example 18 union.
func BenchmarkE6TriangleDecide(b *testing.B) {
	g := graph.ErdosRenyi(128, 2.5/128.0, 1)
	graph.PlantClique(g, 3, 2)
	u := reduction.Example18Query()
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !g.HasTriangle() {
				b.Fatal("triangle missing")
			}
		}
	})
	b.Run("via-ucq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst := reduction.Example18Instance(g)
			answers, err := baseline.EvalUCQ(u, inst)
			if err != nil {
				b.Fatal(err)
			}
			if len(reduction.Example18DecodeTriangles(answers)) == 0 {
				b.Fatal("triangle missing via UCQ")
			}
		}
	})
}

// BenchmarkE7FourCliqueGadget: 4-clique detection through the Example 22
// gadget.
func BenchmarkE7FourCliqueGadget(b *testing.B) {
	g := graph.ErdosRenyi(24, 0.3, 3)
	graph.PlantClique(g, 4, 4)
	u := reduction.Example22Query()
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !g.HasFourClique() {
				b.Fatal("clique missing")
			}
		}
	})
	b.Run("via-ucq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst, _ := reduction.Example22Instance(g)
			answers, err := baseline.EvalUCQ(u, inst)
			if err != nil {
				b.Fatal(err)
			}
			if !reduction.Example22HasFourClique(g, answers) {
				b.Fatal("clique missing via UCQ")
			}
		}
	})
}

// BenchmarkE8UnionGuardK4: 4-clique detection through the Example 31
// star union.
func BenchmarkE8UnionGuardK4(b *testing.B) {
	g := graph.ErdosRenyi(24, 0.3, 5)
	graph.PlantClique(g, 4, 6)
	u := reduction.Example31Query()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := reduction.Example31Instance(g)
		answers, err := baseline.EvalUCQ(u, inst)
		if err != nil {
			b.Fatal(err)
		}
		if !reduction.Example31HasFourClique(g, answers) {
			b.Fatal("clique missing via UCQ")
		}
	}
}

// BenchmarkE9ClassifyGallery: classify every worked example of the paper.
func BenchmarkE9ClassifyGallery(b *testing.B) {
	gallery := paper.Gallery()
	queries := make([]*UCQ, len(gallery))
	for i, ex := range gallery {
		queries[i] = ex.Query()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := Classify(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE10CheatersLemma: the Lemma 5 discrete-step simulation.
func BenchmarkE10CheatersLemma(b *testing.B) {
	mk := func(i int) database.Tuple { return database.Tuple{database.V(int64(i))} }
	events := enumeration.BurstyEvents(2000, 3, 5, 20000, mk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wrapped := enumeration.SimulateCheater(events, 5, 20006, 6, 3)
		if len(wrapped) != 2000 {
			b.Fatal("lost results")
		}
	}
}

// BenchmarkF1ConnexTree: the Figure 1 ext-S-connex tree construction.
func BenchmarkF1ConnexTree(b *testing.B) {
	h := hypergraph.FromVarSets(
		NewVarSet("v", "w"), NewVarSet("w", "y", "z"), NewVarSet("x", "y"))
	s := NewVarSet("x", "y", "z")
	for i := 0; i < b.N; i++ {
		if _, err := hypergraph.BuildConnexTree(h, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2Example2Certificate: certificate search for Example 2
// (Figure 2's union extension).
func BenchmarkF2Example2Certificate(b *testing.B) {
	u := MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`)
	for i := 0; i < b.N; i++ {
		if _, ok := FindCertificate(u, nil); !ok {
			b.Fatal("no certificate")
		}
	}
}

// BenchmarkAblationCheaterVsAlgorithmOne compares the two union strategies
// the paper offers for tractable unions: the Cheater-wrapped chain
// (Theorem 12 pipeline) vs Algorithm 1 (constant memory, no dedup table).
func BenchmarkAblationCheaterVsAlgorithmOne(b *testing.B) {
	u := MustParse(`
		Q1(x,y,w) <- R1(x,y), R2(y,w).
		Q2(x,y,w) <- R2(x,y), R3(y,w).
	`)
	inst := workload.Chain([]string{"R1", "R2", "R3"}, []int{2, 2, 2}, 3000, 2, 7)
	cert, ok := core.FindCertificate(u, nil)
	if !ok {
		b.Fatal("no certificate")
	}
	b.Run("cheater-pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, err := core.NewUnionPlan(u, cert, inst)
			if err != nil {
				b.Fatal(err)
			}
			drain(b, plan.Iterator())
		}
	})
	b.Run("algorithm-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			it, err := core.NewAlgorithmOneUnion(u, inst)
			if err != nil {
				b.Fatal(err)
			}
			drain(b, it)
		}
	})
}

// BenchmarkAblationCDYVsNaiveCQ isolates the constant-delay engine's win
// on a single free-connex CQ with a large output.
func BenchmarkAblationCDYVsNaiveCQ(b *testing.B) {
	q := MustParseCQ("Q(x) <- R1(x,y), R2(y,w).")
	inst := workload.Chain([]string{"R1", "R2"}, []int{2, 2}, 2000, 4, 8)
	b.Run("cdy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, err := yannakakis.Prepare(q, inst, nil)
			if err != nil {
				b.Fatal(err)
			}
			it := plan.Iterator()
			for it.Next() {
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.EvalCQ(q, inst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExperimentSuiteQuick runs the entire experiment harness in
// quick mode (the end-to-end regeneration path of EXPERIMENTS.md).
func BenchmarkExperimentSuiteQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunAll(experiments.Config{Quick: true})
	}
}

// BenchmarkE12UnionParallelVsSequential: the Theorem 12 pipeline's one
// merge over one prepared plan from its two sources — tasks run inline
// ("sequential") vs on the executor with GOMAXPROCS workers. Preparation is
// excluded: the comparison is pure enumeration throughput.
func BenchmarkE12UnionParallelVsSequential(b *testing.B) {
	u := MustParse(`
		Q1(x,y,v,u) <- R1(x,z1), R2(z1,z2), R3(z2,z3), R4(z3,y), R5(y,v,u).
		Q2(x,y,v,u) <- R1(x,y), R2(y,v), R3(v,z1), R4(z1,u), R5(u,t1,t2).
		Q3(x,y,v,u) <- R1(x,z1), R2(z1,y), R3(y,v), R4(v,u), R5(u,t1,t2).
	`)
	inst := workload.Example13Instance(800, 2, 1)
	cert, ok := core.FindCertificate(u, nil)
	if !ok {
		b.Fatal("no certificate")
	}
	plan, err := core.NewUnionPlan(u, cert, inst)
	if err != nil {
		b.Fatal(err)
	}
	want := drain(b, plan.Iterator())
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := drain(b, plan.Iterator()); got != want {
				b.Fatalf("answers = %d, want %d", got, want)
			}
		}
		b.ReportMetric(float64(want), "answers/op")
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			it := plan.Answers(context.Background(), enumeration.UnionOptions{Workers: runtime.GOMAXPROCS(0)}, nil)
			if got := drain(b, it); got != want {
				b.Fatalf("answers = %d, want %d", got, want)
			}
		}
		b.ReportMetric(float64(want), "answers/op")
	})
}

// headStream adapts a CDY plan iterator to the enumeration interface as
// one indivisible stream — the benchmark stand-in for the pre-executor
// per-branch worker model, where the unit of parallelism was fixed at plan
// time.
type headStream struct{ it *yannakakis.Iterator }

func (h *headStream) Next() (Tuple, bool) {
	if !h.it.Next() {
		return nil, false
	}
	return h.it.HeadTuple(), true
}

func (h *headStream) NextBatch(buf []Value, max int) ([]Value, int) {
	n := 0
	for n < max && h.it.Next() {
		buf = h.it.AppendHead(buf)
		n++
	}
	return buf, n
}

// Split makes headStream an exec.Task that never divides.
func (h *headStream) Split() exec.Task { return nil }

// BenchmarkE16WorkStealingSkew: the work-stealing executor against the
// per-branch-worker model on a self-join with ~91% output skew. The query
// Q(x,y,w) <- R2(x,y), R2(y,w) is a single branch, so the whole of it lands
// on one worker no matter how many branch workers are configured; the
// instance concentrates ~10⁶ of the ~1.1M answers on one join key on top.
// The executor instead slices the plan's root rows into range tasks, steals
// and re-splits them — so worksteal-8 scales with cores where
// per-branch-worker-8 leaves seven workers idle. On a single-core machine
// the two are on par; the ≥2x separation shows from ~4 cores up.
func BenchmarkE16WorkStealingSkew(b *testing.B) {
	u := MustParse("Q(x,y,w) <- R2(x,y), R2(y,w).")
	q := u.CQs[0]
	// 10⁶ answers on the heavy key + 110·30² light: 91% output skew.
	inst := workload.SelfJoinSkew(1000, 1000, 110, 30, 1)
	want := 1000*1000 + 110*30*30
	cert, ok := core.FindCertificate(u, nil)
	if !ok {
		b.Fatal("no certificate")
	}
	plan, err := core.NewUnionPlan(u, cert, inst)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := yannakakis.Prepare(q, inst, nil)
	if err != nil {
		b.Fatal(err)
	}

	// The pre-executor model with 8 configured workers: the branch is one
	// indivisible stream, so they all serialise on the one that owns it.
	// (No -N suffix in sub-benchmark names: benchgate strips a trailing
	// -<digits> as the GOMAXPROCS suffix.)
	b.Run("per-branch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			it := enumeration.NewUnion(context.Background(), 3, enumeration.UnionOptions{Workers: 8},
				[]exec.Task{enumeration.TaskOf(&headStream{it: engine.Iterator()})})
			if got := drain(b, it); got != want {
				b.Fatalf("answers = %d, want %d", got, want)
			}
		}
		b.ReportMetric(float64(want), "answers/op")
	})
	for _, wk := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("worksteal/workers=%d", wk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				it := plan.Answers(context.Background(), enumeration.UnionOptions{Workers: wk}, nil)
				if got := drain(b, it); got != want {
					b.Fatalf("answers = %d, want %d", got, want)
				}
			}
			b.ReportMetric(float64(want), "answers/op")
		})
	}
}

// BenchmarkE11FunctionalDependencies: the Remark 2 FD-extension route on
// the mat-mul query.
func BenchmarkE11FunctionalDependencies(b *testing.B) {
	q := MustParseCQ("Q(x,y) <- R1(x,z), R2(z,y).")
	fds := MustFDSet(FD{Rel: "R1", From: []int{0}, To: 1})
	inst := NewInstance()
	r1 := NewRelation("R1", 2)
	for x := int64(0); x < 5000; x++ {
		r1.AppendInts(x, x%64)
	}
	inst.AddRelation(r1)
	r2 := NewRelation("R2", 2)
	for z := int64(0); z < 64; z++ {
		for y := int64(0); y < 40; y++ {
			r2.AppendInts(z, y)
		}
	}
	inst.AddRelation(r2)
	b.ResetTimer()
	answers := 0
	for i := 0; i < b.N; i++ {
		it, err := EnumerateCQWithFDs(q, fds, inst)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		answers = n
	}
	b.ReportMetric(float64(answers), "answers/op")
}

// BenchmarkE15UnionPrepareVsBind quantifies the split the server's
// prepared-plan cache exploits: "prepare" pays the instance-independent
// work (redundancy removal + certificate search) on every request, "bind"
// only the per-instance Theorem 12 preprocessing from a cached
// PreparedQuery — the cost of a cache hit.
func BenchmarkE15UnionPrepareVsBind(b *testing.B) {
	u := MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`)
	inst := workload.Example2Instance(400, 3, 1)
	b.Run("prepare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Prepare(u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	pq, err := Prepare(u, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bind", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pq.Bind(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepare+bind+drain", func(b *testing.B) {
		answers := 0
		for i := 0; i < b.N; i++ {
			plan, err := NewPlan(u, inst, nil)
			if err != nil {
				b.Fatal(err)
			}
			answers = drain(b, plan.Iterator())
		}
		b.ReportMetric(float64(answers), "answers/op")
	})
}

// BenchmarkE17BindDatasetCached quantifies the win of the catalog's bind
// cache on a 10⁶-tuple instance: "cold" is the per-request cost before
// the dataset API — the full Theorem 12 preprocessing on every bind —
// and "cached" is a BindDataset served from the bind cache, which skips
// the linear pass entirely (a lookup plus one Plan allocation). The
// acceptance bar is cached ≥ 10x faster than cold; in practice the gap
// is orders of magnitude.
func BenchmarkE17BindDatasetCached(b *testing.B) {
	u := MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`)
	inst := workload.Example2Instance(170000, 2, 1)
	if n := inst.TupleCount(); n < 1_000_000 {
		b.Fatalf("instance has %d tuples, want ≥ 10⁶", n)
	}
	pq, err := Prepare(u, nil)
	if err != nil {
		b.Fatal(err)
	}
	cat := NewCatalog()
	ds, err := cat.Register("bench", inst)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pq.Bind(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
	if _, err := pq.BindDataset(ds); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := pq.BindDataset(ds)
			if err != nil {
				b.Fatal(err)
			}
			if !p.BindCacheHit() {
				b.Fatal("expected a bind-cache hit")
			}
		}
	})
}

// BenchmarkE18AutoModeSelection: the cost-based Auto planner against
// hand-picked execution modes across the three instance regimes it
// navigates — tiny (where any parallelism is overhead), uniform, and
// skewed (where work stealing re-splits the heavy key). Each arm times
// bind + drain, so Auto pays for its own decision probe (the counting
// pass) inside the measurement. The claim the gate watches: auto tracks
// the best hand-picked mode per regime and never the worst.
func BenchmarkE18AutoModeSelection(b *testing.B) {
	u := MustParse("Q(x,y,w) <- R1(x,y), R2(y,w).")
	pq, err := Prepare(u, nil)
	if err != nil {
		b.Fatal(err)
	}
	instances := []struct {
		name string
		inst *Instance
	}{
		// ~160 answers: below every parallel threshold.
		{"tiny", workload.SkewedJoin(4, 4, 12, 4, 3, 1)},
		// 100 balanced keys, 48k answers.
		{"uniform", workload.SkewedJoin(160, 3, 99, 160, 3, 1)},
		// ~1M answers, ~96% on one key: work stealing re-splits (the E16
		// skew regime).
		{"skewed", workload.SkewedJoin(16000, 60, 99, 160, 3, 1)},
	}
	modes := []struct {
		name string
		opts *PlanOptions
	}{
		{"auto", &PlanOptions{Auto: true}},
		{"sequential", nil},
		{"parallel", &PlanOptions{Workers: runtime.GOMAXPROCS(0)}},
	}
	for _, in := range instances {
		seq, err := pq.Bind(in.inst)
		if err != nil {
			b.Fatal(err)
		}
		want := seq.Count()
		for _, m := range modes {
			b.Run(in.name+"/"+m.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p, err := pq.BindExec(in.inst, m.opts)
					if err != nil {
						b.Fatal(err)
					}
					if got := drain(b, p.Iterator()); got != want {
						b.Fatalf("answers = %d, want %d", got, want)
					}
				}
				b.ReportMetric(float64(want), "answers/op")
			})
		}
	}
}
