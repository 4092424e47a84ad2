// functional_deps demonstrates Remark 2 of the paper: functional
// dependencies can flip an intractable query into a constant-delay
// enumerable one. The matrix-multiplication query Q(x,y) <- R1(x,z),
// R2(z,y) is the canonical hard case — unless R1's first column determines
// its second, in which case the FD-extension Q(x,y,z) is free-connex.
//
// Run with: go run ./examples/functional_deps
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	q := ucq.MustParseCQ("Q(x,y) <- R1(x,z), R2(z,y).")
	fmt.Fprintf(w, "query: %s\n", q)
	fmt.Fprintf(w, "without FDs: %s (the mat-mul hard case)\n\n", ucq.ClassifyCQ(q))

	fds := ucq.MustFDSet(ucq.FD{Rel: "R1", From: []int{0}, To: 1})
	ext, ok := ucq.ClassifyCQWithFDs(q, fds)
	fmt.Fprintf(w, "with FD %v:\n", fds.All()[0])
	fmt.Fprintf(w, "  FD-extension: %s\n", ext)
	fmt.Fprintf(w, "  FD-extension free-connex: %v\n\n", ok)

	// Build an instance satisfying the FD: each x has exactly one z.
	inst := ucq.NewInstance()
	r1 := ucq.NewRelation("R1", 2)
	r2 := ucq.NewRelation("R2", 2)
	for x := int64(0); x < 8; x++ {
		r1.AppendInts(x, x%3) // z is a function of x
	}
	for z := int64(0); z < 3; z++ {
		for y := int64(0); y < 4; y++ {
			if (z+y)%2 == 0 {
				r2.AppendInts(z, 10+y)
			}
		}
	}
	inst.AddRelation(r1)
	inst.AddRelation(r2)

	it, err := ucq.EnumerateCQWithFDs(q, fds, inst)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "answers (constant delay through the FD-extension):")
	count := 0
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		count++
		fmt.Fprintf(w, "  %v\n", t)
	}
	fmt.Fprintf(w, "%d answers.\n\n", count)

	// Violating the FD is rejected up front.
	r1.AppendInts(0, 2) // x=0 now maps to two z values
	if _, err := ucq.EnumerateCQWithFDs(q, fds, inst); err != nil {
		fmt.Fprintf(w, "after violating the FD: %v\n", err)
	}
	return nil
}
