package database

// This file holds the engine's key tables: a dense key table (KeySet) in
// one of two layouts, the CSR index built over it (Index) and the semijoin
// that probes it. A built one-column set whose values span fewer slots than
// its hashed table would take (hi−lo below the power of two newSlots picks
// for its row count) is direct-addressed: slot v−lo holds v's entry, so a
// probe is a subtraction, a bounds check and a read, and the table is never
// larger than the hashed one. Every other set — a sparse column, several
// columns, or a growable set — is open-addressed by hash. Bind-time tables
// are sized once from the row count and filled in counted passes, a fixed
// number of arrays whatever the number of keys; every other dedup site
// grows a KeySet with Add.

// KeySet is a set of fixed-width keys, each numbered by a dense entry in
// first-occurrence order: entry e's key is keys[e*width:(e+1)*width] — for
// one column a bare array of values — with no offsets or stored hashes. A
// built set (BuildKeySet) sizes its slots once, for the row count or for a
// dense column's span, never rehashes and is immutable, safe to share. A growable one (NewKeySet, Add) doubles
// its slots from the keys as it fills and is not safe for concurrent use.
// The entries, and so everything ordered by them, do not depend on the
// layout.
type KeySet struct {
	width int
	// n is the number of entries (kept apart from len(keys) for width 0).
	n    int
	keys []Value
	// slots is the table: 0 empty, else an entry number + 1. Hashed, it is
	// open-addressed under mask; dense, slot j is the key lo+j.
	slots []int32
	mask  uint64
	lo    Value
	dense bool
}

// slotCount returns the hashed table size for up to n entries: a power of
// two, at a load of at most 3/4.
func slotCount(n int) int {
	size := 8
	for size*3/4 < n {
		size <<= 1
	}
	return size
}

// newSlots returns an empty hashed slot table for up to n entries.
func newSlots(n int) ([]int32, uint64) {
	size := slotCount(n)
	return make([]int32, size), uint64(size - 1)
}

// hash1 hashes a single value: one multiply, the high half folded down to
// where the slot mask reads.
func hash1(v Value) uint64 {
	h := uint64(v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// hashKey is the hash every KeySet slot table is addressed by.
func hashKey(key Tuple) uint64 {
	if len(key) == 1 {
		return hash1(key[0])
	}
	return key.Hash()
}

func identityCols(arity int) []int {
	cols := make([]int, arity)
	for c := range cols {
		cols[c] = c
	}
	return cols
}

func isIdentity(cols []int, arity int) bool {
	if len(cols) != arity {
		return false
	}
	for c, col := range cols {
		if c != col {
			return false
		}
	}
	return true
}

// appendCols appends row's values at cols to key.
func appendCols(key []Value, row Tuple, cols []int) []Value {
	for _, c := range cols {
		key = append(key, row[c])
	}
	return key
}

// clipValues returns vals, copied to an exactly sized array when more than
// half of its capacity is unused.
func clipValues(vals []Value) []Value {
	if cap(vals) > 2*len(vals) {
		return append(make([]Value, 0, len(vals)), vals...)
	}
	return vals
}

// rowSlots fills a slot table over whole rows of r (arity > 0), entry i
// being row i. With check set it compares rows and stops at the first
// repeated one, reporting distinct false; without, the caller vouches that
// the rows are distinct and no row is compared.
func (r *Relation) rowSlots(check bool) (slots []int32, mask uint64, distinct bool) {
	n := r.Len()
	slots, mask = newSlots(n)
	for i := 0; i < n; i++ {
		row := r.Row(i)
		j := hashKey(row) & mask
		for slots[j] != 0 {
			if check && r.Row(int(slots[j]-1)).Equal(row) {
				return nil, 0, false
			}
			j = (j + 1) & mask
		}
		slots[j] = int32(i + 1)
	}
	return slots, mask, true
}

// BuildKeySet returns the distinct cols-projections of r's rows, built in
// one pass. The key array is sized for one key per row and clipped
// afterwards. A non-nil entries (one element per row) receives each row's
// entry number, which groups the rows by key with no second hash.
// Over all columns of a known set the rows are the keys: the table shares
// r's storage and only the slots are built. A one-column set over a dense
// column is direct-addressed (see the file comment).
func (r *Relation) BuildKeySet(cols []int, entries []int32) *KeySet {
	n, a, w := r.Len(), r.arity, len(cols)
	if w == 1 {
		if lo, span, ok := r.colSpan(cols[0]); ok && span < uint64(slotCount(n)) {
			return r.denseKeySet(cols[0], lo, span, entries)
		}
	}
	if a > 0 && r.distinct.Load() == distinctYes && isIdentity(cols, a) {
		ks := &KeySet{width: w, n: n, keys: r.data[:len(r.data):len(r.data)]}
		ks.slots, ks.mask, _ = r.rowSlots(false)
		for i := range entries {
			entries[i] = int32(i)
		}
		return ks
	}
	ks := &KeySet{width: w, keys: make([]Value, 0, n*w)}
	ks.slots, ks.mask = newSlots(n)
	if w == 1 {
		c := cols[0]
		for i := 0; i < n; i++ {
			v := r.data[i*a+c]
			j := hash1(v) & ks.mask
			for ks.slots[j] != 0 && ks.keys[ks.slots[j]-1] != v {
				j = (j + 1) & ks.mask
			}
			if ks.slots[j] == 0 {
				ks.keys = append(ks.keys, v)
				ks.slots[j] = int32(len(ks.keys))
			}
			if entries != nil {
				entries[i] = ks.slots[j] - 1
			}
		}
		ks.n = len(ks.keys)
		ks.keys = clipValues(ks.keys)
		return ks
	}
	key := make(Tuple, 0, w)
	for i := 0; i < n; i++ {
		key = appendCols(key[:0], r.Row(i), cols)
		j := key.Hash() & ks.mask
		for ks.slots[j] != 0 && !ks.at(int(ks.slots[j]-1)).Equal(key) {
			j = (j + 1) & ks.mask
		}
		if ks.slots[j] == 0 {
			ks.keys = append(ks.keys, key...)
			ks.n++
			ks.slots[j] = int32(ks.n)
		}
		if entries != nil {
			entries[i] = ks.slots[j] - 1
		}
	}
	ks.keys = clipValues(ks.keys)
	return ks
}

// colSpan returns the least value of column c and hi−lo, its greatest value
// less it, which is exact as an unsigned difference over the whole int64
// range; ok is false when r has no rows.
func (r *Relation) colSpan(c int) (lo Value, span uint64, ok bool) {
	n, a := r.Len(), r.arity
	if n == 0 {
		return 0, 0, false
	}
	lo, hi := r.data[c], r.data[c]
	for i := a + c; i < len(r.data); i += a {
		v := r.data[i]
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, uint64(hi) - uint64(lo), true
}

// denseKeySet builds the direct-addressed one-column set over column c,
// whose values lie in [lo, lo+span]: one slot per value of the span, and
// one slot write per row. A column that is a known set's only column is
// the key array itself, shared like the hashed layout shares it.
func (r *Relation) denseKeySet(c int, lo Value, span uint64, entries []int32) *KeySet {
	n, a := r.Len(), r.arity
	ks := &KeySet{width: 1, lo: lo, dense: true, slots: make([]int32, span+1)}
	if a == 1 && r.distinct.Load() == distinctYes {
		ks.n, ks.keys = n, r.data[:n:n]
		for i, v := range ks.keys {
			ks.slots[uint64(v-lo)] = int32(i + 1)
		}
		for i := range entries {
			entries[i] = int32(i)
		}
		return ks
	}
	ks.keys = make([]Value, 0, n)
	for i := 0; i < n; i++ {
		v := r.data[i*a+c]
		s := &ks.slots[uint64(v-lo)]
		if *s == 0 {
			ks.keys = append(ks.keys, v)
			*s = int32(len(ks.keys))
		}
		if entries != nil {
			entries[i] = *s - 1
		}
	}
	ks.n = len(ks.keys)
	ks.keys = clipValues(ks.keys)
	return ks
}

// at returns entry e's key as a view.
func (ks *KeySet) at(e int) Tuple { return Tuple(ks.keys[e*ks.width : (e+1)*ks.width]) }

// Len returns the number of distinct keys.
func (ks *KeySet) Len() int { return ks.n }

// EntryOf returns the entry number of key, or -1 when absent (or of the
// wrong width). It allocates nothing.
func (ks *KeySet) EntryOf(key []Value) int {
	if len(key) != ks.width {
		return -1
	}
	if ks.width == 1 {
		return int(ks.entry1(key[0]))
	}
	for j := Tuple(key).Hash() & ks.mask; ; j = (j + 1) & ks.mask {
		e := int(ks.slots[j])
		if e == 0 || ks.at(e-1).Equal(key) {
			return e - 1
		}
	}
}

// entry1 returns the entry of the one-column key v, or -1. Dense, v−lo is
// v's slot when it is below the slot count: a value outside [lo, hi] wraps
// to at least the count as an unsigned difference, so no key is compared.
func (ks *KeySet) entry1(v Value) int32 {
	if ks.dense {
		if j := uint64(v - ks.lo); j < uint64(len(ks.slots)) {
			return ks.slots[j] - 1
		}
		return -1
	}
	for j := hash1(v) & ks.mask; ; j = (j + 1) & ks.mask {
		e := ks.slots[j]
		if e == 0 || ks.keys[e-1] == v {
			return e - 1
		}
	}
}

// EntriesOf returns, for every row of r, the entry of its cols-projection,
// or -1 when absent. A one-column key is read straight from the column,
// with no key assembled per row.
func (ks *KeySet) EntriesOf(r *Relation, cols []int) []int32 {
	if len(cols) != ks.width {
		panic("database: key width mismatch")
	}
	out := make([]int32, r.Len())
	if ks.width == 1 {
		a, c := r.arity, cols[0]
		if ks.dense {
			for i := range out {
				if j := uint64(r.data[i*a+c] - ks.lo); j < uint64(len(ks.slots)) {
					out[i] = ks.slots[j] - 1
				} else {
					out[i] = -1
				}
			}
			return out
		}
		for i := range out {
			out[i] = ks.entry1(r.data[i*a+c])
		}
		return out
	}
	var buf [8]Value
	for i := range out {
		out[i] = int32(ks.EntryOf(appendCols(buf[:0], r.Row(i), cols)))
	}
	return out
}

// Contains reports whether key is in the set.
func (ks *KeySet) Contains(key []Value) bool { return ks.EntryOf(key) >= 0 }

// Index is a hash index on a column subset of a relation in CSR layout: a
// dense key table, and for entry e the matching row numbers — ascending —
// at rows[offs[e]:offs[e+1]] of one flat array. Lookups find the key in
// place (in either KeySet layout), slice the row array and allocate
// nothing.
type Index struct {
	cols []int
	keys *KeySet
	offs []int32
	rows []int32
}

// BuildIndex indexes the relation on the given columns. The index snapshots
// row numbers; it must be rebuilt if the relation changes. Two counted
// passes over the rows' entries: count the rows per entry, prefix-sum into
// offs, then drop each row number into its entry's range.
func (r *Relation) BuildIndex(cols []int) *Index {
	entries := make([]int32, r.Len())
	keys := r.BuildKeySet(cols, entries)
	ix := &Index{cols: append([]int(nil), cols...), keys: keys,
		offs: make([]int32, keys.n+1), rows: make([]int32, len(entries))}
	for _, e := range entries {
		ix.offs[e+1]++
	}
	for e := 0; e < keys.n; e++ {
		ix.offs[e+1] += ix.offs[e]
	}
	// offs[e] now starts entry e; filling advances it to the entry's end,
	// which is the next entry's start, so shifting right restores it.
	for i, e := range entries {
		ix.rows[ix.offs[e]] = int32(i)
		ix.offs[e]++
	}
	copy(ix.offs[1:], ix.offs)
	ix.offs[0] = 0
	return ix
}

// span returns the bounds of key's range in ix.rows, or an empty range.
// It exists so that Lookup stays within the inlining budget.
func (ix *Index) span(key []Value) (lo, hi int32) {
	e := ix.keys.EntryOf(key)
	if e < 0 {
		return 0, 0
	}
	return ix.offs[e], ix.offs[e+1]
}

// Lookup returns the row numbers whose indexed columns equal key (empty,
// not nil, when there are none).
func (ix *Index) Lookup(key []Value) []int32 {
	lo, hi := ix.span(key)
	return ix.rows[lo:hi]
}

// Contains reports whether any row matches key. Every interned key has at
// least one row, so membership in the key set suffices.
func (ix *Index) Contains(key []Value) bool { return ix.keys.Contains(key) }

// Cols returns the indexed columns.
func (ix *Index) Cols() []int { return ix.cols }

// Semijoin keeps the rows of r whose rCols-projection matches some row of s
// on sCols (r ⋉ s). See SemijoinKeys for what it returns.
func Semijoin(r *Relation, rCols []int, s *Relation, sCols []int) *Relation {
	if len(rCols) != len(sCols) {
		panic("database: semijoin column count mismatch")
	}
	return SemijoinKeys(r, rCols, s.BuildKeySet(sCols, nil))
}

// SemijoinKeys keeps the rows of r whose rCols-projection is in keys, the
// key set of the other side. Survivors are marked in a bitmap first: when
// nothing dangles the result is r itself — the same pointer, nothing
// copied — and otherwise the survivors are copied, in order, into one
// exactly sized array. Since the result may be r, it is as read-only as r
// is. With no shared columns the key is the empty tuple and r survives
// whole iff the other side is non-empty.
func SemijoinKeys(r *Relation, rCols []int, keys *KeySet) *Relation {
	if len(rCols) != keys.width {
		panic("database: semijoin column count mismatch")
	}
	n, a := r.Len(), r.arity
	marks := make([]uint64, (n+63)/64)
	kept := 0
	mark := func(i int) {
		marks[i>>6] |= 1 << (i & 63)
		kept++
	}
	switch {
	case keys.width == 1 && keys.dense:
		c, lo, size := rCols[0], keys.lo, uint64(len(keys.slots))
		for i := 0; i < n; i++ {
			if j := uint64(r.data[i*a+c] - lo); j < size && keys.slots[j] != 0 {
				mark(i)
			}
		}
	case keys.width == 1:
		c := rCols[0]
		for i := 0; i < n; i++ {
			if keys.entry1(r.data[i*a+c]) >= 0 {
				mark(i)
			}
		}
	default:
		var buf [8]Value
		for i := 0; i < n; i++ {
			if keys.EntryOf(appendCols(buf[:0], r.Row(i), rCols)) >= 0 {
				mark(i)
			}
		}
	}
	if kept == n {
		return r
	}
	out := NewRelation(r.Name, a)
	out.subsetOf(r)
	if a == 0 {
		return out // a nullary r survives whole or not at all
	}
	out.data = make([]Value, 0, kept*a)
	for i := 0; i < n; i++ {
		if marks[i>>6]&(1<<(i&63)) != 0 {
			out.data = append(out.data, r.data[i*a:(i+1)*a]...)
		}
	}
	return out
}

// NewKeySet returns an empty growable set of keys of the given width.
func NewKeySet(width int) *KeySet {
	ks := &KeySet{width: width}
	ks.slots, ks.mask = newSlots(0)
	return ks
}

// Add inserts key if absent, returning its entry number and whether it was
// new. The key is copied, so it may be a transient view; a present key
// costs one probe and no allocation. Add panics on a key of the wrong
// width.
func (ks *KeySet) Add(key []Value) (entry int, fresh bool) {
	if len(key) != ks.width {
		panic("database: key width mismatch")
	}
	if ks.dense {
		panic("database: Add to a built key set")
	}
	j := ks.find(key)
	if e := ks.slots[j]; e != 0 {
		return int(e) - 1, false
	}
	ks.keys = append(ks.keys, key...)
	ks.n++
	ks.slots[j] = int32(ks.n)
	if uint64(ks.n)*4 > (ks.mask+1)*3 {
		ks.grow()
	}
	return ks.n - 1, true
}

// find returns the slot holding key, or the empty slot where it would go.
func (ks *KeySet) find(key []Value) uint64 {
	if ks.width == 1 {
		v := key[0]
		j := hash1(v) & ks.mask
		for ks.slots[j] != 0 && ks.keys[ks.slots[j]-1] != v {
			j = (j + 1) & ks.mask
		}
		return j
	}
	j := Tuple(key).Hash() & ks.mask
	for ks.slots[j] != 0 && !ks.at(int(ks.slots[j]-1)).Equal(key) {
		j = (j + 1) & ks.mask
	}
	return j
}

// grow doubles the slot table and re-places every entry by rehashing its
// key; the key array itself does not move.
func (ks *KeySet) grow() {
	size := 2 * (ks.mask + 1)
	ks.slots, ks.mask = make([]int32, size), size-1
	for e := 0; e < ks.n; e++ {
		j := hashKey(ks.at(e)) & ks.mask
		for ks.slots[j] != 0 {
			j = (j + 1) & ks.mask
		}
		ks.slots[j] = int32(e + 1)
	}
}

// Relation returns the keys as a relation of arity width, one row per
// entry in entry order, known to be a set. It shares the key array — O(1),
// no copy — with length and capacity clipped, so keys added later are
// invisible to it and appends to it cannot reach the set.
func (ks *KeySet) Relation(name string) *Relation {
	out := NewRelation(name, ks.width)
	if ks.width == 0 {
		out.nullaryLen = ks.n
	} else {
		out.data = ks.keys[:len(ks.keys):len(ks.keys)]
	}
	out.distinct.Store(distinctYes)
	return out
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a 64-bit hash of the tuple: FNV-1a over the value words,
// followed by a 64-bit avalanche. The multiply in FNV only propagates
// entropy toward high bits, while open-addressed tables select slots from
// the low bits; the final mix spreads the entropy back down.
func (t Tuple) Hash() uint64 {
	h := uint64(fnvOffset64)
	for _, v := range t {
		h ^= uint64(v)
		h *= fnvPrime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
