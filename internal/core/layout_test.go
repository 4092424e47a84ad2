package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/paper"
	"repro/internal/workload"
)

// spreadValue maps v to v·2^24 + 7: order-preserving on the small values
// the test instances hold, and spacing them past the span at which a
// one-column key table is direct-addressed, so every table a bind builds
// over a spread instance hashes (unless its column holds one value).
func spreadValue(v database.Value) database.Value { return v<<24 + 7 }

func unspreadValue(v database.Value) database.Value { return (v - 7) >> 24 }

// spreadInstance returns inst with every value spread.
func spreadInstance(inst *database.Instance) *database.Instance {
	out := database.NewInstance()
	for _, name := range inst.Names() {
		r := inst.Relation(name)
		s := database.NewRelation(name, r.Arity())
		for i := range r.Len() {
			row := r.Row(i)
			vals := make([]database.Value, len(row))
			for c, v := range row {
				vals[c] = spreadValue(v)
			}
			s.Append(vals...)
		}
		out.AddRelation(s)
	}
	return out
}

// checkLayoutFree binds c over inst and over its spread twin, whose key
// tables hash where inst's are direct-addressed, and requires the same
// plan: the same Explain (steps, top row counts, copy counts), the same
// marks and probes per member, and the same answers in the same order once
// mapped back.
func checkLayoutFree(t *testing.T, label string, c *CompiledUnion, inst *database.Instance) {
	t.Helper()
	dense, err := c.Bind(t.Context(), inst)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := c.Bind(t.Context(), spreadInstance(inst))
	if err != nil {
		t.Fatal(err)
	}
	if d, s := dense.Explain(), sparse.Explain(); d != s {
		t.Fatalf("%s: the plans differ\ndense:\n%s\nspread:\n%s", label, d, s)
	}
	for i := range dense.ranks {
		d, s := &dense.ranks[i], &sparse.ranks[i]
		if d.copies != s.copies || len(dense.streams[i].parts) != len(sparse.streams[i].parts) ||
			!slices.Equal(d.marked, s.marked) || !slices.Equal(d.probed, s.probed) {
			t.Fatalf("%s: member %d has %d copies (%d non-empty) over dense values and %d (%d) spread",
				label, i, d.copies, len(dense.streams[i].parts), s.copies, len(sparse.streams[i].parts))
		}
	}
	want, got := dense.Materialize().Rows(), sparse.Materialize().Rows()
	for _, row := range got {
		for c := range row {
			row[c] = unspreadValue(row[c])
		}
	}
	if !slices.EqualFunc(got, want, database.Tuple.Equal) {
		t.Fatalf("%s: %d answers over dense values, %d spread, or a different order\ndense:  %v\nspread: %v", label, len(want), len(got), want, got)
	}
}

// TestKeyLayoutChangesNoPlan is the plan-level reference for the
// direct-addressed key tables: over the paper's certified unions and 150
// random draws, a bind over dense values and one over the same values
// spread apart build the same plans and stream the same answers in the
// same order. The layout is a lookup detail; no entry number, row order or
// plan may depend on it.
func TestKeyLayoutChangesNoPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	checked := 0
	for _, ex := range paper.Gallery() {
		u := ex.Query()
		c, ok := compileCertified(t, u)
		if !ok {
			continue
		}
		for trial := range 4 {
			checkLayoutFree(t, fmt.Sprintf("%s trial %d", ex.Name, trial), c, randomInstance(u, rng, 30, int64(3+trial)))
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("only %d gallery unions certify", checked)
	}
	c, _ := example2Bind(t, 1, 1, 1)
	checkLayoutFree(t, "Example 2, chain", c, workload.Example2Instance(300, 3, 7))
	checkLayoutFree(t, "Example 2, dangling", c, workload.Example2DanglingInstance(300, 3, 0.9, 7))

	certified := 0
	for i := range 150 {
		var u *cq.UCQ
		if i%2 == 0 {
			u = workload.RandomUCQ(rng)
		} else {
			u = workload.RandomProvidedUCQ(rng)
		}
		c, ok := compileCertified(t, u)
		if !ok {
			continue
		}
		certified++
		inst := workload.RandomForQuery(u, 6+rng.Intn(20), int64(2+rng.Intn(6)), rng.Int63())
		checkLayoutFree(t, fmt.Sprintf("draw %d: %s", i, u), c, inst)
	}
	t.Logf("%d gallery unions and %d of 150 draws certified", checked, certified)
	if certified < 50 {
		t.Errorf("only %d of 150 draws certify", certified)
	}
}
