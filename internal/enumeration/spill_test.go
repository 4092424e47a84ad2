package enumeration

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/database"
)

// TestParallelUnionSpill drives the merge past its in-memory dedup budget
// with overlapping branches and checks the spilled run yields exactly the
// deduplicated answer set — including tuples handed out before the
// migration, which are arena views that must survive it.
func TestParallelUnionSpill(t *testing.T) {
	forEachSource(t, func(t *testing.T, workers int) {
		its := []Iterator{
			NewSliceIterator(mkTuples(0, 900)),
			NewSliceIterator(mkTuples(300, 900)), // overlaps both neighbours
			NewSliceIterator(mkTuples(600, 900)),
		}
		u := unionOf(1, UnionOptions{
			Workers:     workers,
			BatchSize:   32,
			M:           3,
			SpillBudget: 64,
			SpillDir:    t.TempDir(),
		}, its...)
		var got []database.Tuple
		for {
			tup, ok := u.Next()
			if !ok {
				break
			}
			got = append(got, tup)
		}
		if err := u.Err(); err != nil {
			t.Fatal(err)
		}
		if !u.Spilled() {
			t.Fatal("2700 pulled answers against a budget of 64 never spilled")
		}
		if len(got) != 1500 {
			t.Fatalf("spilled union yielded %d answers, want 1500 distinct", len(got))
		}
		if u.Duplicates() != 1200 {
			t.Fatalf("suppressed %d duplicates, want 1200", u.Duplicates())
		}
		vals := make([]int, len(got))
		for i, tup := range got {
			vals[i] = int(tup[0].Payload())
		}
		sort.Ints(vals)
		for i, v := range vals {
			if v != i {
				t.Fatalf("answer set corrupted: sorted[%d] = %d (pre-migration view invalidated?)", i, v)
			}
		}
	})
}

// TestParallelUnionSpillError pins the failure contract: when the spill
// migration cannot happen (here the spill dir's parent is a regular file,
// so it can never be created), the stream must end early with Err() set —
// never report a clean exhaustion over a truncated answer set.
func TestParallelUnionSpillError(t *testing.T) {
	forEachSource(t, func(t *testing.T, workers int) {
		occupied := filepath.Join(t.TempDir(), "occupied")
		if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		u := unionOf(1, UnionOptions{
			Workers:     workers,
			BatchSize:   8,
			M:           2,
			SpillBudget: 4,
			SpillDir:    filepath.Join(occupied, "spill"),
		}, NewSliceIterator(mkTuples(0, 100)))
		n := 0
		for {
			if _, ok := u.Next(); !ok {
				break
			}
			n++
		}
		if err := u.Err(); err == nil {
			t.Fatalf("drained %d answers with an impossible spill dir, want Err() set", n)
		}
		if n >= 100 {
			t.Fatalf("stream yielded all %d answers despite the failed spill", n)
		}
		// Next after the poisoned close keeps reporting exhaustion.
		if _, ok := u.Next(); ok {
			t.Fatal("Next returned an answer after the spill failure closed the union")
		}
	})
}

// TestParallelUnionSpillMatchesInMemory pins the acceptance property: the
// same branches drained with and without a budget produce identical sets.
func TestParallelUnionSpillMatchesInMemory(t *testing.T) {
	forEachSource(t, func(t *testing.T, workers int) {
		drain := func(opts UnionOptions) map[string]bool {
			its := []Iterator{
				NewSliceIterator(mkTuples(0, 400)),
				NewSliceIterator(mkTuples(100, 400)),
			}
			u := unionOf(1, opts, its...)
			set := make(map[string]bool)
			for {
				tup, ok := u.Next()
				if !ok {
					break
				}
				if set[tup.String()] {
					t.Fatalf("duplicate answer %s", tup)
				}
				set[tup.String()] = true
			}
			if err := u.Err(); err != nil {
				t.Fatal(err)
			}
			return set
		}
		mem := drain(UnionOptions{Workers: workers, BatchSize: 16, M: 2})
		spilled := drain(UnionOptions{Workers: workers, BatchSize: 16, M: 2, SpillBudget: 10, SpillDir: t.TempDir()})
		if len(mem) != len(spilled) {
			t.Fatalf("in-memory set has %d answers, spilled %d", len(mem), len(spilled))
		}
		for k := range mem {
			if !spilled[k] {
				t.Fatalf("answer %s missing from the spilled set", k)
			}
		}
	})
}
