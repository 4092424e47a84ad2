package yannakakis

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
)

// TestFullKeysFirstUse: a plan's full-key tables are built on their first
// read, and every stream of a shared plan may make that read. Goroutines
// released together make the first ContainsHead calls of a fresh plan, and
// each must agree with the answers a twin plan over the same instance
// enumerates, on answers and on perturbed tuples. Under -race, a table
// built without a guard fails here.
func TestFullKeysFirstUse(t *testing.T) {
	q := cq.MustParseCQ("Q(x,y,w,v) <- R1(x,y), R2(y,w), R3(w,v).")
	rng := rand.New(rand.NewSource(52))
	rels := map[string][][]int64{}
	for _, name := range []string{"R1", "R2", "R3"} {
		for range 300 {
			rels[name] = append(rels[name], []int64{rng.Int63n(40), rng.Int63n(40)})
		}
	}
	inst := makeInstance(rels)
	twin, err := prepare(q, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	answers := twin.MaterializeHead()
	if answers.Len() == 0 {
		t.Fatal("the instance has no answers")
	}
	want := map[string]bool{}
	var probes []database.Tuple
	for i := range answers.Len() {
		row := answers.Row(i)
		want[row.Key()] = true
		probes = append(probes, row)
		off := row.Clone()
		off[i%len(off)] += 1000
		probes = append(probes, off)
	}

	for round := range 20 {
		plan, err := prepare(q, inst, nil)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 8
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := range probes {
					p := probes[(k+g*len(probes)/goroutines)%len(probes)]
					if got := plan.ContainsHead(p); got != want[p.Key()] {
						errs <- p.String()
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for p := range errs {
			t.Fatalf("round %d: ContainsHead(%s) disagrees with the twin plan's answers", round, p)
		}
	}
}
