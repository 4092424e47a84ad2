// Package database implements the in-memory storage substrate: values,
// tuples, relations, database instances and hash indexes.
//
// The paper assumes the DRAM model: registers of O(log n) bits with O(1)
// lookups into tables of polynomial size. We realise the model with int64
// values, flat row-major relation storage and key tables that are
// direct-addressed where a column's values are dense — the model's O(1)
// lookup as it stands — and hashed otherwise, where a "constant time"
// register operation becomes an expected-constant-time hash operation.
//
// Linear preprocessing is kept linear with a small constant by touching
// each stored row once and copying it only when something is removed:
// relations remember whether they are sets (Relation.IsSet) and hand out
// O(1) views of their rows (Relation.View), safe because stored rows are
// never rewritten; a semijoin returns its input when nothing dangles and
// one exactly sized copy otherwise (SemijoinKeys); and key sets, indexes
// and projections share one layout — a dense fixed-width key table plus,
// for indexes, CSR offsets into one flat row array (KeySet, Index) — built
// in counted passes with a fixed number of allocations.
//
// Values are plain int64s: the paper's constants from a domain, each held in
// one register. The lower-bound proofs' trick of concatenating a variable
// name to a value belongs to the reductions that use it
// (internal/reduction), which encode it into values of their own.
package database

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Value is a database constant: any int64.
type Value int64

// V builds a value.
func V(x int64) Value { return Value(x) }

// String renders the value in decimal.
func (v Value) String() string { return strconv.FormatInt(int64(v), 10) }

// Tuple is a sequence of values. Tuples obtained from relations are views
// into shared storage and must not be mutated or retained across appends.
type Tuple []Value

// Clone returns an owned copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Key encodes the tuple as a string map key. The engine's own dedup sites
// use a KeySet instead; Key remains for tests and external callers that
// want a map-friendly identity.
func (t Tuple) Key() string {
	return encodeKey(t)
}

// Less orders tuples lexicographically; used for deterministic output.
func (t Tuple) Less(u Tuple) bool {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if t[i] != u[i] {
			return t[i] < u[i]
		}
	}
	return len(t) < len(u)
}

// String renders the tuple as (a,b,c).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// encodeKey packs values into a string usable as a hash key.
func encodeKey(vals []Value) string {
	b := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		u := uint64(v)
		b = append(b,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return string(b)
}

// Relation is a table with flat row-major storage. Stored relations may be
// bags; whether the rows are pairwise distinct is a fact the relation
// memoises (IsSet), so that a query plan can share the rows of a set
// instead of copying them through a hash table to re-prove it.
//
// Sharing rests on one rule: a stored row is never rewritten. Append writes
// past the end (or into a fresh array), Dedup rebuilds into a fresh array,
// and every other operation returns a new relation. A View taken at bind
// time — same backing array, length and capacity clipped — therefore stays
// exactly the rows it was taken over, whatever the owner appends later.
// As everywhere in this package, appending while another goroutine reads
// the same Relation value is the caller's race.
//
// Growth follows from the rule. Instance.Extend grows a relation into a new
// relation that shares its array and writes the new rows past its end, so
// the old relation keeps exactly its rows while its spare capacity now
// holds its successor's. An array therefore has one writer, the newest
// relation grown in it: appending to or extending an older one would
// overwrite rows its successor reads. A relation that others may also
// grow is adopted as a View, whose first growth copies into an array of
// its own.
type Relation struct {
	Name  string
	arity int
	data  []Value
	// nullaryLen counts rows of arity-0 relations, which carry no data.
	nullaryLen int
	// distinct memoises whether the rows are pairwise distinct. It is
	// atomic because concurrent binds of one instance may settle it at the
	// same time; they store the same answer.
	distinct atomic.Uint32
}

// States of Relation.distinct.
const (
	distinctUnknown uint32 = iota
	distinctYes
	distinctNo
)

// NewRelation creates an empty relation of the given arity. Arity zero is
// allowed: a nullary relation holds either zero rows or one empty row.
func NewRelation(name string, arity int) *Relation {
	if arity < 0 {
		panic("database: negative arity")
	}
	return &Relation{Name: name, arity: arity}
}

// RelationOf returns a relation of n rows of the given arity whose values
// are data, row-major; it takes data, which must hold n·arity values. A
// nullary relation carries its row count alone.
func RelationOf(name string, arity, n int, data []Value) *Relation {
	if arity < 0 || len(data) != n*arity {
		panic(fmt.Sprintf("database: %d values for %d rows of arity %d", len(data), n, arity))
	}
	r := &Relation{Name: name, arity: arity, data: data}
	if arity == 0 {
		r.nullaryLen = n
	}
	return r
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of rows. Nullary relations track their row count
// explicitly via AppendEmptyRow.
func (r *Relation) Len() int {
	if r.arity == 0 {
		return r.nullaryLen
	}
	return len(r.data) / r.arity
}

// appended forgets the duplicate-free fact: a new row may repeat an old one.
func (r *Relation) appended() {
	if r.distinct.Load() != distinctUnknown {
		r.distinct.Store(distinctUnknown)
	}
}

// Append adds one row. It panics on arity mismatch: relation loading is
// programmatic here and an arity error is a bug, not input error.
func (r *Relation) Append(vals ...Value) {
	if len(vals) != r.arity {
		panic(fmt.Sprintf("database: relation %s arity %d, got %d values", r.Name, r.arity, len(vals)))
	}
	r.appended()
	if r.arity == 0 {
		r.nullaryLen++
		return
	}
	r.data = append(r.data, vals...)
}

// AppendInts adds one row of values.
func (r *Relation) AppendInts(vals ...int64) {
	if len(vals) != r.arity {
		panic(fmt.Sprintf("database: relation %s arity %d, got %d values", r.Name, r.arity, len(vals)))
	}
	r.appended()
	for _, v := range vals {
		r.data = append(r.data, V(v))
	}
	if r.arity == 0 {
		r.nullaryLen++
	}
}

// Row returns a view of row i. The view is valid until the next Append.
func (r *Relation) Row(i int) Tuple {
	if r.arity == 0 {
		return Tuple{}
	}
	return Tuple(r.data[i*r.arity : (i+1)*r.arity])
}

// Values returns rows [lo, hi) as one flat view, valid until the next Append.
func (r *Relation) Values(lo, hi int) []Value { return r.data[lo*r.arity : hi*r.arity] }

// Rows returns owned copies of all rows, for tests and small outputs.
func (r *Relation) Rows() []Tuple {
	out := make([]Tuple, r.Len())
	for i := range out {
		out[i] = r.Row(i).Clone()
	}
	return out
}

// SortedRows returns owned copies of all rows in lexicographic order.
func (r *Relation) SortedRows() []Tuple {
	out := r.Rows()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// IsSet reports whether the rows are pairwise distinct. The first call
// after construction or an Append hashes every row once (one slot table,
// no copy); the answer is memoised until the next Append.
func (r *Relation) IsSet() bool {
	switch r.distinct.Load() {
	case distinctYes:
		return true
	case distinctNo:
		return false
	}
	var distinct bool
	if r.arity == 0 {
		distinct = r.nullaryLen <= 1
	} else {
		_, _, distinct = r.rowSlots(true)
	}
	if distinct {
		r.distinct.Store(distinctYes)
	} else {
		r.distinct.Store(distinctNo)
	}
	return distinct
}

// MarkDistinct records that the rows are pairwise distinct without
// checking, for a relation filled from a source that cannot repeat a row
// (a duplicate-free enumeration, say). A wrong mark breaks the engine's
// no-duplicates guarantee.
func (r *Relation) MarkDistinct() { r.distinct.Store(distinctYes) }

// View returns a relation over the rows r holds now, sharing their storage:
// O(1), no copy. Length and capacity are clipped, so rows appended to r
// later are neither visible through the view nor able to move it.
func (r *Relation) View() *Relation {
	v := &Relation{Name: r.Name, arity: r.arity, data: r.data[:len(r.data):len(r.data)], nullaryLen: r.nullaryLen}
	v.distinct.Store(r.distinct.Load())
	return v
}

// Suffix returns a view of rows [lo, Len()) — the rows appended since r
// held lo rows — sharing their storage like View: O(1), no copy, and
// unaffected by later appends. Nullary relations count their rows.
func (r *Relation) Suffix(lo int) *Relation {
	v := &Relation{Name: r.Name, arity: r.arity, data: r.data[lo*r.arity : len(r.data) : len(r.data)]}
	if r.arity == 0 {
		v.nullaryLen = r.nullaryLen - lo
	}
	v.subsetOf(r)
	return v
}

// Dedup removes duplicate rows (stable on first occurrence). A relation
// already known to be a set is left untouched; otherwise the survivors go
// to a fresh array, never over the stored rows.
func (r *Relation) Dedup() {
	if r.IsSet() {
		return
	}
	if r.arity == 0 {
		r.nullaryLen = 1
	} else {
		r.data = r.BuildKeySet(identityCols(r.arity), nil).keys
	}
	r.distinct.Store(distinctYes)
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.Name, r.arity)
	out.data = append([]Value(nil), r.data...)
	out.nullaryLen = r.nullaryLen
	out.distinct.Store(r.distinct.Load())
	return out
}

// Project returns a deduplicated relation holding the given columns of
// every row, in first-occurrence order: the key table of those columns is
// the projection. A known set projected onto all its columns in order
// comes back sharing r's storage, like a View.
func (r *Relation) Project(name string, cols []int) *Relation {
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("database: projection column %d out of range for arity %d", c, r.arity))
		}
	}
	return r.BuildKeySet(cols, nil).Relation(name)
}

// subsetOf records on r, a relation holding some of src's rows, what that
// says about duplicates: a subset of a set is a set, a subset of a bag may
// be either.
func (r *Relation) subsetOf(src *Relation) {
	if src.distinct.Load() == distinctYes {
		r.distinct.Store(distinctYes)
	}
}

// Filter returns a new relation with the rows satisfying keep.
func (r *Relation) Filter(keep func(Tuple) bool) *Relation {
	out := NewRelation(r.Name, r.arity)
	out.subsetOf(r)
	if r.arity == 0 {
		if r.nullaryLen > 0 && keep(Tuple{}) {
			out.nullaryLen = r.nullaryLen
		}
		return out
	}
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		if keep(row) {
			out.data = append(out.data, row...)
		}
	}
	return out
}

// String renders the relation name, arity and row count.
func (r *Relation) String() string {
	return fmt.Sprintf("%s/%d[%d rows]", r.Name, r.arity, r.Len())
}

// Instance is a database instance: a relation per symbol.
type Instance struct {
	rels map[string]*Relation
}

// NewInstance creates an empty instance.
func NewInstance() *Instance {
	return &Instance{rels: make(map[string]*Relation)}
}

// AddRelation registers a relation, replacing any previous one of the same
// name.
func (in *Instance) AddRelation(r *Relation) {
	in.rels[r.Name] = r
}

// Relation returns the named relation, or nil.
func (in *Instance) Relation(name string) *Relation {
	return in.rels[name]
}

// MustRelation returns the named relation or panics; for internal plumbing
// after validation.
func (in *Instance) MustRelation(name string) *Relation {
	r := in.rels[name]
	if r == nil {
		panic(fmt.Sprintf("database: no relation %q", name))
	}
	return r
}

// Names returns the relation names in sorted order.
func (in *Instance) Names() []string {
	out := make([]string, 0, len(in.rels))
	for n := range in.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Size returns the total number of stored values across relations — the
// ||I|| measure the paper's linear-preprocessing bounds refer to.
func (in *Instance) Size() int {
	n := 0
	for _, r := range in.rels {
		n += r.Len() * r.Arity()
	}
	return n
}

// TupleCount returns the total number of rows across relations.
func (in *Instance) TupleCount() int {
	n := 0
	for _, r := range in.rels {
		n += r.Len()
	}
	return n
}

// Clone deep-copies the instance.
func (in *Instance) Clone() *Instance {
	out := NewInstance()
	for _, r := range in.rels {
		out.AddRelation(r.Clone())
	}
	return out
}

// ShallowClone returns a new instance sharing the relation objects. Query
// engines in this repository never mutate input relations, so overlaying
// extra relations on a shared base is safe and avoids copying the data.
func (in *Instance) ShallowClone() *Instance {
	out := NewInstance()
	for _, r := range in.rels {
		out.AddRelation(r)
	}
	return out
}

// View returns an instance of Views of in's relations: O(relations), no
// copy. Rows appended to in's relations later do not show through it, and
// extending it copies each relation it grows before writing, never into
// in's arrays.
func (in *Instance) View() *Instance {
	out := NewInstance()
	for _, r := range in.rels {
		out.AddRelation(r.View())
	}
	return out
}

// Extend returns the instance appending delta's rows to in makes — the one
// meaning of an append, for live writes and log replay alike. A relation
// delta does not name is shared with in, one in lacks is delta's own, and
// one both hold grows in place: the result's relation shares in's array
// and writes delta's rows past its end, or into a larger array once it is
// full, so an append costs the rows it adds, not the relation. in itself
// is unchanged. Only the newest instance of a chain may be extended (see
// Relation). Extend fails, with nothing grown, on an append no writer
// makes: an empty delta relation, a new nullary relation, or an arity
// unlike the existing relation's.
func (in *Instance) Extend(delta *Instance) (*Instance, error) {
	for _, name := range delta.Names() {
		d, old := delta.rels[name], in.rels[name]
		switch {
		case d.Len() == 0:
			return nil, fmt.Errorf("database: append to %s has no rows", name)
		case old == nil && d.arity == 0:
			return nil, fmt.Errorf("database: an append cannot create nullary relation %s", name)
		case old != nil && old.arity != d.arity:
			return nil, fmt.Errorf("database: append to %s has arity %d; the relation has %d", name, d.arity, old.arity)
		}
	}
	out := in.ShallowClone()
	for name, d := range delta.rels {
		if old := in.rels[name]; old != nil {
			d = &Relation{Name: name, arity: old.arity, data: append(old.data, d.data...), nullaryLen: old.nullaryLen + d.nullaryLen}
		}
		out.AddRelation(d)
	}
	return out, nil
}

// String summarises the instance.
func (in *Instance) String() string {
	parts := make([]string, 0, len(in.rels))
	for _, n := range in.Names() {
		parts = append(parts, in.rels[n].String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
