package database

// This file implements the compact tuple-key layer: a 64-bit tuple hash and
// an arena-backed deduplication set. Together they replace the string-keyed
// maps (one string allocation per probe, one per stored key) that used to
// back every dedup site in the engine; probes are allocation-free and stored
// tuples live contiguously in a single growing arena.

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

// TupleSet is a deduplication set over tuples. Inserted tuples are copied
// back to back into one growing arena and addressed by an open-addressed
// slot table keyed on Tuple.Hash, so membership probes allocate nothing and
// a set of n tuples costs three flat slices rather than n map entries.
// Tuples of different lengths may share a set. A TupleSet is not safe for
// concurrent use.
//
// Offsets are int32: a set holds at most 2^31 values / 2^31-1 entries,
// far beyond the workloads here (the flat Relation storage shares the same
// practical bound).
type TupleSet struct {
	arena []Value
	// offs brackets the entries: entry i spans arena[offs[i]:offs[i+1]],
	// so len(offs) is Len()+1 and offs[0] is 0.
	offs   []int32
	hashes []uint64
	// slots is the open-addressed table: -1 empty, else an entry index.
	slots []int32
	mask  uint64
}

// NewTupleSet creates an empty set sized for about sizeHint entries.
func NewTupleSet(sizeHint int) *TupleSet {
	if sizeHint < 0 {
		sizeHint = 0
	}
	n := 8
	for n*3/4 < sizeHint {
		n <<= 1
	}
	s := &TupleSet{
		offs:   make([]int32, 1, sizeHint+1),
		hashes: make([]uint64, 0, sizeHint),
		slots:  make([]int32, n),
		mask:   uint64(n - 1),
	}
	for i := range s.slots {
		s.slots[i] = -1
	}
	return s
}

// Len returns the number of distinct tuples inserted.
func (s *TupleSet) Len() int { return len(s.offs) - 1 }

// At returns entry i as a view into the arena. Views stay valid and
// immutable for the lifetime of the set; callers must not mutate them.
func (s *TupleSet) At(i int) Tuple { return Tuple(s.arena[s.offs[i]:s.offs[i+1]]) }

// findSlot returns the slot holding an entry equal to t, or the first empty
// slot of its probe sequence.
func (s *TupleSet) findSlot(h uint64, t Tuple) uint64 {
	i := h & s.mask
	for {
		e := s.slots[i]
		if e < 0 || (s.hashes[e] == h && s.At(int(e)).Equal(t)) {
			return i
		}
		i = (i + 1) & s.mask
	}
}

// IndexOf returns the entry index of t, or -1 when absent.
func (s *TupleSet) IndexOf(t Tuple) int {
	return int(s.slots[s.findSlot(t.Hash(), t)])
}

// Contains reports membership without inserting.
func (s *TupleSet) Contains(t Tuple) bool { return s.IndexOf(t) >= 0 }

// Add inserts t if absent, returning its entry index and whether it was
// newly inserted. The tuple is copied; t may be a transient view.
func (s *TupleSet) Add(t Tuple) (int, bool) {
	h := t.Hash()
	i := s.findSlot(h, t)
	if e := s.slots[i]; e >= 0 {
		return int(e), false
	}
	e := int32(s.Len())
	s.slots[i] = e
	s.hashes = append(s.hashes, h)
	s.arena = append(s.arena, t...)
	s.offs = append(s.offs, int32(len(s.arena)))
	if uint64(s.Len())*4 >= (s.mask+1)*3 {
		s.grow()
	}
	return int(e), true
}

// Insert inserts t if absent, reporting whether it was newly inserted.
func (s *TupleSet) Insert(t Tuple) bool {
	_, fresh := s.Add(t)
	return fresh
}

// InsertGet inserts t if absent and returns the stored copy — a stable
// arena view — along with whether it was newly inserted. Streaming dedup
// sites hand the view straight to consumers instead of cloning.
func (s *TupleSet) InsertGet(t Tuple) (Tuple, bool) {
	e, fresh := s.Add(t)
	return s.At(e), fresh
}

// grow doubles the slot table and rehouses every entry from its stored
// hash; the arena itself never moves entries.
func (s *TupleSet) grow() {
	n := (s.mask + 1) * 2
	s.slots = make([]int32, n)
	for i := range s.slots {
		s.slots[i] = -1
	}
	s.mask = n - 1
	for e, h := range s.hashes {
		i := h & s.mask
		for s.slots[i] >= 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = int32(e)
	}
}
