package database

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestTupleHashEqualTuples(t *testing.T) {
	a := Tuple{V(1), V(2), V(3)}
	b := Tuple{V(1), V(2), V(3)}
	if a.Hash() != b.Hash() {
		t.Fatal("equal tuples must hash equal")
	}
	if a.Hash() == (Tuple{V(1), V(3), V(2)}).Hash() {
		t.Fatal("permuted tuple should (overwhelmingly) hash differently")
	}
	if (Tuple{V(1)}).Hash() == (Tuple{V(1 | 2<<56)}).Hash() {
		t.Fatal("values differing in their high bits should hash differently")
	}
}

// TestKeySetGrowAgainstMap drives growable key sets of every width against
// a map: random keys with duplicates through several slot-table doublings,
// entries dense and in first-occurrence order, every key readable and
// findable after each growth, the keys' relation a set with no pass over
// it, and no allocation for a key already present.
func TestKeySetGrowAgainstMap(t *testing.T) {
	for width := 0; width <= 3; width++ {
		t.Run(fmt.Sprintf("width-%d", width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 + width)))
			ks := NewKeySet(width)
			want := map[string]int{}
			var order []Tuple
			check := func() {
				t.Helper()
				if ks.Len() != len(order) {
					t.Fatalf("Len = %d, map holds %d", ks.Len(), len(order))
				}
				for e, key := range order {
					if got := ks.EntryOf(key); got != e || !ks.Contains(key) {
						t.Fatalf("EntryOf(%v) = %d, want %d", key, got, e)
					}
					if !ks.at(e).Equal(key) {
						t.Fatalf("entry %d reads %v, want %v", e, ks.at(e), key)
					}
				}
			}
			doublings, slots := 0, len(ks.slots)
			for i := 0; i < 4000; i++ {
				key := make(Tuple, width)
				for c := range key {
					key[c] = V(int64(rng.Intn(3000)))
				}
				e, fresh := ks.Add(key)
				k := key.Key()
				if prev, ok := want[k]; ok {
					if fresh || e != prev {
						t.Fatalf("re-Add(%v) = %d, %v; first added as %d", key, e, fresh, prev)
					}
				} else {
					if !fresh || e != len(order) {
						t.Fatalf("Add(%v) = %d, %v; want new entry %d", key, e, fresh, len(order))
					}
					want[k] = e
					order = append(order, key)
				}
				if len(ks.slots) != slots {
					doublings, slots = doublings+1, len(ks.slots)
					check()
				}
			}
			check()
			if width > 0 && doublings < 5 {
				t.Errorf("only %d doublings", doublings)
			}
			for probe := 0; probe < 200; probe++ {
				key := make(Tuple, width)
				for c := range key {
					key[c] = V(int64(rng.Intn(6000)))
				}
				_, ok := want[key.Key()]
				if ks.Contains(key) != ok {
					t.Fatalf("Contains(%v) = %v, map says %v", key, !ok, ok)
				}
			}
			if ks.Contains(make(Tuple, width+1)) {
				t.Fatal("a key of the wrong width is contained")
			}

			rel := ks.Relation("K")
			if rel.distinct.Load() != distinctYes || rel.Arity() != width || rel.Len() != len(order) {
				t.Fatalf("Relation = %v, distinct state %d", rel, rel.distinct.Load())
			}
			for e, key := range order {
				if !rel.Row(e).Equal(key) {
					t.Fatalf("row %d = %v, want %v", e, rel.Row(e), key)
				}
			}
			if cap(rel.data) != len(rel.data) {
				t.Errorf("relation capacity %d exceeds its length %d", cap(rel.data), len(rel.data))
			}

			present := order[len(order)/2]
			if got := testing.AllocsPerRun(100, func() { ks.Add(present) }); got != 0 {
				t.Errorf("Add of a present key allocates %.0f times", got)
			}
		})
	}

	t.Run("insert-contains", func(t *testing.T) {
		ks := NewKeySet(2)
		if ks.Len() != 0 || ks.Contains(Tuple{V(1), V(2)}) {
			t.Fatal("empty set is not empty")
		}
		if _, fresh := ks.Add(Tuple{V(1), V(2)}); !fresh {
			t.Fatal("first insert not fresh")
		}
		if _, fresh := ks.Add(Tuple{V(1), V(2)}); fresh {
			t.Fatal("second insert fresh")
		}
		if !ks.Contains(Tuple{V(1), V(2)}) || ks.Contains(Tuple{V(2), V(1)}) || ks.Len() != 1 {
			t.Fatal("membership after one insert is wrong")
		}
	})

	t.Run("copies-key", func(t *testing.T) {
		ks := NewKeySet(2)
		buf := Tuple{V(7), V(8)}
		ks.Add(buf)
		buf[0] = V(99)
		if !ks.Contains(Tuple{V(7), V(8)}) || ks.Contains(buf) {
			t.Fatal("the stored key aliases the caller's buffer")
		}
	})

	t.Run("empty-tuple", func(t *testing.T) {
		ks := NewKeySet(0)
		if ks.Contains(Tuple{}) {
			t.Fatal("empty set contains the empty tuple")
		}
		if _, fresh := ks.Add(Tuple{}); !fresh {
			t.Fatal("empty-tuple insert not fresh")
		}
		if e, fresh := ks.Add(Tuple{}); fresh || e != 0 || !ks.Contains(Tuple{}) {
			t.Fatal("empty-tuple dedup broken")
		}
		if rel := ks.Relation("B"); rel.Arity() != 0 || rel.Len() != 1 || !rel.IsSet() {
			t.Fatalf("Relation of the empty tuple = %v", rel)
		}
	})
}

// TestBuildKeySetEntries checks the per-row entries a bind groups child
// rows by: each row's entry is its key's entry in the set, entries are
// numbered in first-occurrence order, and the set equals BuildKeySet's.
// Over bags and known sets (whose all-column set shares the rows), every
// column subset including none, and arity 0.
func TestBuildKeySetEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 300; trial++ {
		arity := rng.Intn(4)
		r := randomRelation(rng, arity, rng.Intn(40))
		if trial%2 == 0 {
			r.Dedup()
		}
		cols := identityCols(arity)
		if trial%3 != 0 {
			rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
			cols = cols[:rng.Intn(arity+1)]
		}
		entries := make([]int32, r.Len())
		ks, plain := r.BuildKeySet(cols, entries), r.BuildKeySet(cols, nil)
		if ks.Len() != plain.Len() {
			t.Fatalf("trial %d: %d keys with entries, %d without", trial, ks.Len(), plain.Len())
		}
		next := int32(0)
		for i, e := range entries {
			key := appendCols(nil, r.Row(i), cols)
			if got := ks.EntryOf(key); got != int(e) || plain.EntryOf(key) != int(e) {
				t.Fatalf("trial %d: row %d of %v on %v has entry %d, its key %v is entry %d", trial, i, r.Rows(), cols, e, key, got)
			}
			if e > next {
				t.Fatalf("trial %d: row %d opens entry %d before entry %d", trial, i, e, next)
			}
			if e == next {
				next++
			}
		}
		if int(next) != ks.Len() {
			t.Fatalf("trial %d: rows reach %d entries of %d", trial, next, ks.Len())
		}
	}
}
