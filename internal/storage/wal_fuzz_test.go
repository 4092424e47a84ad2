package storage

import (
	"math"
	"testing"

	"repro/internal/database"
	"repro/internal/wire"
)

// FuzzWALRecord throws arbitrary bytes at the record reader, reading one
// record after another as WAL replay does. The invariants: no panic,
// errors are clean, and whatever the reader accepts re-encodes and
// re-reads to the same relations and version.
func FuzzWALRecord(f *testing.F) {
	rec := func(version uint64, rels ...*database.Relation) []byte {
		inst := database.NewInstance()
		for _, rel := range rels {
			inst.AddRelation(rel)
		}
		b, err := appendRecord(nil, version, inst)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	rel := func(name string, arity int, vals ...database.Value) *database.Relation {
		r := database.NewRelation(name, arity)
		for len(vals) > 0 {
			r.Append(vals[:arity]...)
			vals = vals[arity:]
		}
		return r
	}
	v := database.V
	f.Add([]byte{})
	f.Add(rec(1, rel("R", 2, v(1), v(2))))
	f.Add(rec(7, rel("S", 1, v(-3)), rel("T", 3, v(4), v(5), v(6))))
	f.Add(rec(2))
	f.Add(rec(3, rel("edge", 2, v(10), v(20), v(30), v(40))))
	f.Add(wire.AppendFrame(nil, kindRelation, []byte("not a relation table")))
	f.Add([]byte{0x57, 0x51, 0x43, 0x55, 0xff, 0xff, 0xff, 0x7f})
	// A relation spanning two block frames — nullary, so the seed stays
	// small — then a second relation.
	many := rel("M", 0)
	for range wire.BlockRows(0) + 1 {
		many.Append()
	}
	f.Add(rec(4, many, rel("R", 1, v(9))))
	nullary := rel("N", 0)
	nullary.Append()
	f.Add(rec(5, nullary))
	f.Add(rec(6, rel("R", 2, v(math.MinInt64), v(math.MaxInt64))))
	full := rec(8, rel("R", 2, v(1), v(2)), rel("S", 1, v(3)))
	commit := wire.AppendFrame(nil, kindCommit, []byte{8, 2}) // version 8, two relations
	f.Add(full[:len(full)-len(commit)])
	f.Add(oldFormatRecord())
	f.Add(oldKindRecord(3))

	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) > 0 {
			version, inst, rest, err := readRecord(data)
			if err != nil {
				return // torn tail: replay stops here
			}
			again, err := appendRecord(nil, version, inst)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			v2, inst2, tail, err := readRecord(again)
			if err != nil || v2 != version || len(tail) != 0 {
				t.Fatalf("re-read: v%d, %d trailing bytes, %v; want v%d", v2, len(tail), err, version)
			}
			sameRelations(t, inst2, inst)
			data = rest
		}
	})
}
