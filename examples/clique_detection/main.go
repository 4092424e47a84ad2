// clique_detection runs the paper's clique-based lower-bound reductions
// forward: triangle detection through Example 18's union of intractable
// CQs, and 4-clique detection through Example 22's bypass gadget
// (Figure 3) — each checked against a direct graph algorithm.
//
// Run with: go run ./examples/clique_detection
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/reduction"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	if err := triangles(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return fourCliques(w)
}

func triangles(w io.Writer) error {
	fmt.Fprintln(w, "Triangle detection via Example 18 (hyperclique hypothesis)")
	u := reduction.Example18Query()
	res, err := ucq.Classify(u)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  union verdict: %s — %s\n", res.Verdict, res.Reason)

	for i, n := range []int{64, 128, 256} {
		g := graph.ErdosRenyi(n, 2.5/float64(n), int64(i+1))
		if i == 1 {
			graph.PlantClique(g, 3, 9)
		}
		start := time.Now()
		direct := g.HasTriangle()
		directTime := time.Since(start)

		start = time.Now()
		inst := reduction.Example18Instance(g)
		plan, err := ucq.NewPlan(u, inst, &ucq.PlanOptions{ForceNaive: true})
		if err != nil {
			return err
		}
		pairs := reduction.Example18DecodeTriangles(plan.Materialize())
		ucqTime := time.Since(start)

		status := "MATCH"
		if (len(pairs) > 0) != direct {
			status = "MISMATCH"
		}
		fmt.Fprintf(w, "  n=%3d m=%4d: direct=%v (%v), via UCQ=%v (%v)  [%s]\n",
			n, g.M(), direct, directTime.Round(time.Microsecond),
			len(pairs) > 0, ucqTime.Round(time.Microsecond), status)
	}
	return nil
}

func fourCliques(w io.Writer) error {
	fmt.Fprintln(w, "4-clique detection via Example 22 (4-clique hypothesis, Figure 3)")
	u := reduction.Example22Query()
	res, err := ucq.Classify(u)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  union verdict: %s — %s\n", res.Verdict, res.Reason)

	for i, n := range []int{16, 24, 32} {
		g := graph.ErdosRenyi(n, 0.3, int64(i+7))
		if i%2 == 0 {
			graph.PlantClique(g, 4, int64(i))
		}
		start := time.Now()
		direct := g.HasFourClique()
		directTime := time.Since(start)

		start = time.Now()
		inst, tris := reduction.Example22Instance(g)
		plan, err := ucq.NewPlan(u, inst, &ucq.PlanOptions{ForceNaive: true})
		if err != nil {
			return err
		}
		found := reduction.Example22HasFourClique(g, plan.Materialize())
		ucqTime := time.Since(start)

		status := "MATCH"
		if found != direct {
			status = "MISMATCH"
		}
		fmt.Fprintf(w, "  n=%2d triangles=%4d: direct=%v (%v), via UCQ=%v (%v)  [%s]\n",
			n, tris, direct, directTime.Round(time.Microsecond),
			found, ucqTime.Round(time.Microsecond), status)
	}
	return nil
}
