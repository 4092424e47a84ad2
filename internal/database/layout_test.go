package database

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// spread maps a value past the dense threshold: distinct values land at
// least 2^24 apart, so a built one-column set over spread values hashes
// unless every value is the same.
func spread(v Value) Value { return v<<24 + 7 }

// layoutsAgree builds one-column key sets over vals three ways — as given,
// mapped by spread, and grown key by key with Add, which always hashes —
// on a two-column relation (the key in column 1), on a bag of one column
// and on a set of one column (whose key array is its rows). The sets must
// agree on Len, on every row's entry, with and without the entries
// argument, and on EntryOf and Contains for present keys and for absent
// ones: below lo, above hi, in the gaps and at the ends of int64. Each set
// must be in the layout the size rule gives it.
func layoutsAgree(t *testing.T, vals []int64) {
	t.Helper()
	var lo, hi Value
	for i, v := range vals {
		if i == 0 || Value(v) < lo {
			lo = Value(v)
		}
		if i == 0 || Value(v) > hi {
			hi = Value(v)
		}
	}
	// Spread keeps only the low 40 bits, so it maps two values that differ
	// in the high ones alike; the spread arm runs only when it maps vals one
	// to one, and skips a probe that collides with a value.
	spreadOf, distinct := map[Value]Value{}, map[int64]bool{}
	for _, v := range vals {
		spreadOf[spread(Value(v))] = Value(v)
		distinct[v] = true
	}
	injective := len(spreadOf) == len(distinct)
	probes := []Value{lo - 2, lo - 1, hi + 1, hi + 2, math.MinInt64, math.MaxInt64, 0, -1}
	for _, v := range vals {
		probes = append(probes, Value(v))
	}
	if gap := uint64(hi) - uint64(lo); gap <= 256 {
		for v := lo; v != hi; v++ {
			probes = append(probes, v)
		}
	} else {
		rng := rand.New(rand.NewSource(int64(len(vals))))
		for range 64 {
			probes = append(probes, lo+Value(rng.Uint64()%gap))
		}
	}

	for _, shape := range []struct {
		name       string
		arity, col int
		set        bool
	}{{"column", 2, 1, false}, {"bag", 1, 0, false}, {"set", 1, 0, true}} {
		label := fmt.Sprintf("%s over %v", shape.name, vals)
		build := func(f func(Value) Value) (*Relation, *KeySet, []int32) {
			r := NewRelation("R", shape.arity)
			for i, v := range vals {
				if shape.arity == 2 {
					r.Append(V(int64(i)), f(V(v)))
				} else {
					r.Append(f(V(v)))
				}
			}
			if shape.set {
				r.Dedup()
			}
			entries := make([]int32, r.Len())
			ks := r.BuildKeySet([]int{shape.col}, entries)
			_, span, ok := r.colSpan(shape.col)
			if want := ok && span < uint64(slotCount(r.Len())); ks.dense != want {
				t.Fatalf("%s: dense = %v, want %v (span %d, %d rows)", label, ks.dense, want, span, r.Len())
			}
			return r, ks, entries
		}
		r, ks, entries := build(func(v Value) Value { return v })
		n := r.Len()
		plain := r.BuildKeySet([]int{shape.col}, nil)
		ref := NewKeySet(1)
		for i := range n {
			ref.Add(r.Row(i)[shape.col : shape.col+1])
		}
		if ks.Len() != ref.Len() || plain.Len() != ref.Len() {
			t.Fatalf("%s: Len %d, %d without entries, %d grown", label, ks.Len(), plain.Len(), ref.Len())
		}
		for i := range n {
			if want := ref.EntryOf(r.Row(i)[shape.col : shape.col+1]); int(entries[i]) != want {
				t.Fatalf("%s: row %d has entry %d, want %d", label, i, entries[i], want)
			}
		}
		for _, p := range probes {
			want := ref.EntryOf([]Value{p})
			if got := ks.EntryOf([]Value{p}); got != want || ks.Contains([]Value{p}) != (want >= 0) {
				t.Fatalf("%s: EntryOf(%d) = %d, want %d", label, p, got, want)
			}
			if got := plain.EntryOf([]Value{p}); got != want {
				t.Fatalf("%s: without entries, EntryOf(%d) = %d, want %d", label, p, got, want)
			}
		}
		if injective {
			_, sk, sEntries := build(spread)
			if sk.dense && lo != hi {
				t.Fatalf("%s: the spread set is dense", label)
			}
			if sk.Len() != ref.Len() {
				t.Fatalf("%s: Len %d spread, %d grown", label, sk.Len(), ref.Len())
			}
			for i := range n {
				if sEntries[i] != entries[i] {
					t.Fatalf("%s: row %d has entry %d spread, %d as given", label, i, sEntries[i], entries[i])
				}
			}
			for _, p := range probes {
				if v, ok := spreadOf[spread(p)]; ok && v != p {
					continue
				}
				want, key := ref.EntryOf([]Value{p}), []Value{spread(p)}
				if got := sk.EntryOf(key); got != want || sk.Contains(key) != (want >= 0) {
					t.Fatalf("%s: spread, EntryOf(%d) = %d, want %d", label, key[0], got, want)
				}
			}
		}
		if ks.EntryOf(nil) != -1 || ks.EntryOf([]Value{1, 2}) != -1 {
			t.Fatalf("%s: a key of the wrong width is present", label)
		}
		// EntriesOf and SemijoinKeys read the table in their own loops.
		probe := NewRelation("P", 1)
		for _, p := range probes {
			probe.Append(p)
		}
		kept := SemijoinKeys(probe, []int{0}, ks)
		k := 0
		for i, e := range ks.EntriesOf(probe, []int{0}) {
			if want := ref.EntryOf(probe.Row(i)); int(e) != want {
				t.Fatalf("%s: EntriesOf row %d (%v) = %d, want %d", label, i, probe.Row(i), e, want)
			}
			if e >= 0 {
				if k >= kept.Len() || !kept.Row(k).Equal(probe.Row(i)) {
					t.Fatalf("%s: SemijoinKeys keeps %v, misses %v", label, kept.Rows(), probe.Row(i))
				}
				k++
			}
		}
		if k != kept.Len() {
			t.Fatalf("%s: SemijoinKeys keeps %d rows, %d match", label, kept.Len(), k)
		}
	}
}

// TestKeySetLayoutsAgree runs layoutsAgree over the edge cases of the size
// rule: hi−lo below the hashed slot count is dense, at it or above hashes.
func TestKeySetLayoutsAgree(t *testing.T) {
	const minV, maxV = math.MinInt64, math.MaxInt64
	threshold := func(span int64) []int64 {
		// 12 rows take 16 hashed slots, so a span of 15 is dense.
		vals := []int64{0, span}
		for v := int64(1); len(vals) < 12; v++ {
			vals = append(vals, v)
		}
		return vals
	}
	rng := rand.New(rand.NewSource(52))
	var random []int64
	for range 1000 {
		random = append(random, rng.Int63n(1500)-700)
	}
	for _, c := range []struct {
		name  string
		vals  []int64
		dense bool
	}{
		{"empty", nil, false},
		{"single row", []int64{5}, true},
		{"negative", []int64{-3, -7, -3, -1, -5, -2}, true},
		{"negative, sparse", []int64{-3, -7, -3, -1, -10}, false},
		{"span at the threshold", threshold(15), true},
		{"span one past it", threshold(16), false},
		{"both ends of int64", []int64{minV, maxV, 0, -1, 1}, false},
		{"low end of int64", []int64{minV + 2, minV, minV + 1, minV + 2}, true},
		{"high end of int64", []int64{maxV, maxV - 5, maxV - 1}, true},
		{"bag", []int64{3, 1, 3, 3, 2, 1, 9, 2}, true},
		{"random dense", random, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			layoutsAgree(t, c.vals)
			r := NewRelation("R", 1)
			for _, v := range c.vals {
				r.AppendInts(v)
			}
			if ks := r.BuildKeySet([]int{0}, nil); ks.dense != c.dense {
				t.Fatalf("dense = %v, want %v", ks.dense, c.dense)
			}
		})
	}
}

// FuzzKeySetLayouts checks layoutsAgree on columns base + b·step, one row
// per byte b of the first 64, read as a signed offset: a small step gives
// dense columns, a large one sparse ones, and a base near either end of
// int64 wraps.
func FuzzKeySetLayouts(f *testing.F) {
	f.Add(int64(0), int64(1), []byte{0, 3, 3, 250, 7})
	f.Add(int64(math.MaxInt64), int64(1), []byte{0, 1, 2, 3, 200})
	f.Add(int64(-5), int64(1<<40), []byte{1, 2, 3, 1})
	f.Fuzz(func(t *testing.T, base, step int64, offs []byte) {
		if len(offs) > 64 {
			offs = offs[:64]
		}
		vals := make([]int64, len(offs))
		for i, b := range offs {
			vals[i] = base + int64(int8(b))*step
		}
		layoutsAgree(t, vals)
	})
}
