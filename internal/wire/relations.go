package wire

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/database"
)

// Relations is a relations object — relation name → integer rows, the
// instance format of request bodies and instance files — decoded with
// encoding/json's map semantics (a repeated name keeps its last rows; null
// empties the object) into one value column per relation, every row
// checked as it arrives. Instance and Delta build the instance under the
// two sets of rules a relations object is read with; their errors read as
// the root package's (ucq.InstanceFromRows, Dataset.AppendRows), whose
// rules these are.
type Relations struct {
	rels  []relationRows
	index map[string]int // name → position in rels
}

// relationRows is one relation's rows, checked and packed one value at a
// time: value adds a value to the current row, endRow closes it. The
// first fault in row order — a first row wider than MaxArity, a row of
// another width than the first — is kept and the values stop there.
type relationRows struct {
	name  string
	n     int // rows closed
	arity int // width of the first row
	width int // values in the current row
	vals  []database.Value
	err   error
}

// CheckArity rejects a relation wider than MaxArity, the widest tuple an
// answer stream or a journal record carries.
func CheckArity(name string, arity int) error {
	if arity > MaxArity {
		return fmt.Errorf("ucq: relation %s has arity %d, above the limit of %d", name, arity, MaxArity)
	}
	return nil
}

// value adds v to the current row.
func (r *relationRows) value(v int64) {
	r.width++
	if r.err == nil {
		r.vals = append(r.vals, database.Value(v))
	}
}

// endRow closes the current row.
func (r *relationRows) endRow() {
	switch {
	case r.err != nil:
	case r.n == 0:
		r.arity = r.width
		r.err = CheckArity(r.name, r.arity)
	case r.width != r.arity:
		r.err = fmt.Errorf("ucq: %s row %d: %d values, expected %d", r.name, r.n, r.width, r.arity)
	}
	if r.err != nil {
		r.vals = nil
	}
	r.n++
	r.width = 0
}

// relation returns the checked rows as a relation; it takes the column.
func (r *relationRows) relation() *database.Relation {
	return database.RelationOf(r.name, r.arity, r.n, r.vals)
}

// RelationsOf reads a row map — a relations object as encoding/json
// decodes it — through the same checks as Body.Relations. It builds the
// relations in name order and grows each column value by value, as
// InstanceFromRows always has: sizing the columns exactly shrank the heap
// of a process binding the result, and the more frequent collections cost
// the cold-bind benchmark about 10 % in time per answer.
func RelationsOf(m map[string][][]int64) *Relations {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	rs := &Relations{}
	for _, name := range names {
		rows := m[name]
		r := rs.add(name)
		for _, row := range rows {
			for _, v := range row {
				r.value(v)
			}
			r.endRow()
		}
	}
	return rs
}

// Len is the number of relations named, with or without rows.
func (rs *Relations) Len() int { return len(rs.rels) }

// add starts the named relation afresh, dropping any rows an earlier
// occurrence of the name gave it, and returns it.
func (rs *Relations) add(name string) *relationRows {
	i, ok := rs.index[name]
	if !ok {
		if rs.index == nil {
			rs.index = make(map[string]int)
		}
		i = len(rs.rels)
		rs.index[name] = i
		rs.rels = append(rs.rels, relationRows{})
	}
	rs.rels[i] = relationRows{name: name}
	return &rs.rels[i]
}

// reset empties the object, as a null value does.
func (rs *Relations) reset() {
	rs.rels = rs.rels[:0]
	clear(rs.index)
}

// sorted returns the relations in name order, which fixes which error a
// body with several faults reports.
func (rs *Relations) sorted() []relationRows {
	slices.SortFunc(rs.rels, func(a, b relationRows) int { return strings.Compare(a.name, b.name) })
	for i := range rs.rels {
		rs.index[rs.rels[i].name] = i
	}
	return rs.rels
}

var errEmptyName = errors.New("ucq: relation with empty name")

// Instance builds the instance the relations describe, with the rules of
// an instance in full: every relation needs a name and at least one row,
// and its first row, which fixes its arity, must not be empty. It takes
// the value columns.
func (rs *Relations) Instance() (*database.Instance, error) {
	inst := database.NewInstance()
	for i := range rs.sorted() {
		r := &rs.rels[i]
		switch {
		case r.name == "":
			return nil, errEmptyName
		case r.n == 0:
			return nil, fmt.Errorf("ucq: relation %s has no rows; arity unknown", r.name)
		case r.arity == 0:
			return nil, fmt.Errorf("ucq: relation %s has an empty first row; arity unknown", r.name)
		case r.err != nil:
			return nil, r.err
		}
		inst.AddRelation(r.relation())
	}
	return inst, nil
}

// Delta builds the rows to append to a dataset: a relation without rows is
// skipped, and rows may be empty, since the relation they extend fixes
// the arity (Instance.Extend checks them against it). It takes the value
// columns.
func (rs *Relations) Delta() (*database.Instance, error) {
	delta := database.NewInstance()
	for i := range rs.sorted() {
		r := &rs.rels[i]
		switch {
		case r.name == "":
			return nil, errEmptyName
		case r.n == 0:
			continue
		case r.err != nil:
			return nil, r.err
		}
		delta.AddRelation(r.relation())
	}
	return delta, nil
}

// Relations decodes a relations object into rs: each relation's rows go
// straight into a value column, checked as they arrive (relationRows). A
// relation named again replaces its earlier rows, a second object adds to
// the first, and null empties rs, as encoding/json does with a
// map[string][][]int64.
func (d *Body) Relations(rs *Relations) {
	switch d.start() {
	case 'n':
		if d.literal("null") {
			rs.reset()
		}
	case '{':
		d.members(func(key []byte) {
			r := rs.add(string(key))
			r.vals = d.scratch[:0]
			d.rows(r)
			d.scratch = r.vals[:0]
			if r.vals != nil {
				r.vals = append(make([]database.Value, 0, len(r.vals)), r.vals...)
			}
		})
	default:
		d.mismatch("map[string][][]int64")
	}
}

// rows decodes a [][]int64 value into r; null is no rows.
func (d *Body) rows(r *relationRows) {
	switch d.start() {
	case 'n':
		d.literal("null")
	case '[':
		d.elements(func() {
			switch d.start() {
			case 'n': // a null row is an empty one
				d.literal("null")
			case '[':
				d.elements(func() {
					// A null value is the zero encoding/json leaves in place.
					v, _ := d.int64("int64")
					r.value(v)
				})
			default:
				d.mismatch("[]int64")
			}
			r.endRow()
		})
	default:
		d.mismatch("[][]int64")
	}
}
