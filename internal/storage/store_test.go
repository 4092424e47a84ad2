package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/database"
	"repro/internal/wire"
)

func mkInst(rows ...[3]int64) *database.Instance {
	inst := database.NewInstance()
	r := database.NewRelation("R", 2)
	s := database.NewRelation("S", 1)
	for _, row := range rows {
		r.AppendInts(row[0], row[1])
		s.AppendInts(row[2])
	}
	inst.AddRelation(r)
	inst.AddRelation(s)
	return inst
}

// delta builds the AppendRows delta relations for wire rows.
func delta(rows map[string][][]int64) map[string]*database.Relation {
	out := make(map[string]*database.Relation, len(rows))
	for name, rs := range rows {
		rel := database.NewRelation(name, len(rs[0]))
		for _, r := range rs {
			rel.AppendInts(r...)
		}
		out[name] = rel
	}
	return out
}

// record is appendRecord for a delta, failing the test on error.
func record(t testing.TB, version uint64, rels map[string]*database.Relation) []byte {
	t.Helper()
	inst := database.NewInstance()
	for _, rel := range rels {
		inst.AddRelation(rel)
	}
	rec, err := appendRecord(nil, version, inst)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestStoreRoundtrip drives the full lifecycle — register, appends, replace,
// more appends — and checks a reopened store recovers the exact state.
func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LogSnapshot("users", 1, mkInst([3]int64{1, 2, 7})); err != nil {
		t.Fatal(err)
	}
	if err := st.LogAppend("users", 2, delta(map[string][][]int64{"R": {{3, 4}}})); err != nil {
		t.Fatal(err)
	}
	if err := st.LogAppend("users", 3, delta(map[string][][]int64{"S": {{9}}, "T": {{5, 6, 7}}})); err != nil {
		t.Fatal(err)
	}
	if err := st.LogSnapshot("empty", 1, database.NewInstance()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("recovered %d datasets, want 2", len(got))
	}
	if got[0].Name != "empty" || got[0].Version != 1 || got[0].Log[0].TupleCount() != 0 {
		t.Fatalf("empty dataset recovered wrong: %+v", got[0])
	}
	u := got[1]
	if u.Name != "users" || u.Version != 3 {
		t.Fatalf("users recovered at %q v%d, want users v3", u.Name, u.Version)
	}
	want := mkInst([3]int64{1, 2, 7})
	want.Relation("R").AppendInts(3, 4)
	want.Relation("S").AppendInts(9)
	tr := database.NewRelation("T", 3)
	tr.AppendInts(5, 6, 7)
	want.AddRelation(tr)
	// Recover(1) keeps the instances at v2 and v3; v2's R already holds
	// its appended row, and v2 has no T yet.
	if len(u.Log) != 2 || u.Log[0].Relation("R").Len() != 2 || u.Log[0].Relation("T") != nil {
		t.Fatalf("users log = %v, want the instances at v2 and v3", u.Log)
	}
	sameRelations(t, u.Log[1], want)

	// The recovered store is immediately writable: the WAL handle is open
	// and positioned past the replayed records.
	if err := st2.LogAppend("users", 4, delta(map[string][][]int64{"R": {{8, 8}}})); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	got3, err := st3.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if got3[1].Version != 4 {
		t.Fatalf("version %d after recovered append, want 4", got3[1].Version)
	}
}

// TestStoreReplaceResetsWAL checks Replace folds the WAL into the snapshot
// and that appends past the replace replay on top of it.
func TestStoreReplaceResetsWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LogSnapshot("d", 1, mkInst([3]int64{1, 1, 1})); err != nil {
		t.Fatal(err)
	}
	if err := st.LogAppend("d", 2, delta(map[string][][]int64{"R": {{2, 2}}})); err != nil {
		t.Fatal(err)
	}
	repl := mkInst([3]int64{5, 5, 5})
	if err := st.LogSnapshot("d", 3, repl); err != nil {
		t.Fatal(err)
	}
	if err := st.LogAppend("d", 4, delta(map[string][][]int64{"R": {{6, 6}}})); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Version != 4 {
		t.Fatalf("recovered %+v, want one dataset at v4", got)
	}
	want := mkInst([3]int64{5, 5, 5})
	want.Relation("R").AppendInts(6, 6)
	sameRelations(t, got[0].Log[0], want)
}

// TestStoreTornTail simulates a crash mid-append: garbage after the last
// fsynced record. Replay must recover the last acknowledged version, with
// no partial relation, and truncate the tail so the WAL is clean again.
// A well-framed record AppendRows could not have written counts as torn
// too.
func TestStoreTornTail(t *testing.T) {
	nullary := database.NewRelation("M", 0)
	nullary.Append()
	for _, tail := range [][]byte{
		{0xde},                   // lone garbage byte
		{0x46, 0x51, 0x43, 0x55}, // valid magic, truncated header
		record(t, 9, delta(map[string][][]int64{"R": {{1, 1}}}))[:20], // truncated record
		func() []byte { // bit-flipped payload
			rec := record(t, 3, delta(map[string][][]int64{"R": {{1, 1}}}))
			rec[len(rec)-1] ^= 0x40
			return rec
		}(),
		record(t, 4, delta(map[string][][]int64{"R": {{1, 1}}})),    // version gap
		record(t, 3, delta(map[string][][]int64{"R": {{1, 1, 1}}})), // arity mismatch
		oldKindRecord(3), // the record kinds of the older value layout
		record(t, 3, map[string]*database.Relation{"R": database.NewRelation("R", 2)}), // no rows
		record(t, 3, map[string]*database.Relation{"M": nullary}),                      // new nullary
	} {
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.LogSnapshot("d", 1, mkInst([3]int64{1, 2, 3})); err != nil {
			t.Fatal(err)
		}
		if err := st.LogAppend("d", 2, delta(map[string][][]int64{"R": {{4, 5}}})); err != nil {
			t.Fatal(err)
		}
		st.Close()

		walPath := filepath.Join(dir, "ds-64", "wal.dat") // hex("d") = 64
		wal, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath, append(wal, tail...), 0o644); err != nil {
			t.Fatal(err)
		}

		st2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st2.Recover(0)
		if err != nil {
			t.Fatalf("tail %x: %v", tail, err)
		}
		if len(got) != 1 || got[0].Version != 2 {
			t.Fatalf("tail %x: recovered %+v, want v2", tail, got)
		}
		want := mkInst([3]int64{1, 2, 3})
		want.Relation("R").AppendInts(4, 5)
		sameRelations(t, got[0].Log[0], want)
		if n := st2.Stats().TornTails; n != 1 {
			t.Fatalf("tail %x: TornTails = %d, want 1", tail, n)
		}
		st2.Close()

		// The torn tail was truncated: a third open sees a clean WAL.
		clean, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(clean) != len(wal) {
			t.Fatalf("tail %x: WAL %d bytes after recovery, want %d", tail, len(clean), len(wal))
		}
	}
}

// TestStoreDrop checks LogDrop removes durable state.
func TestStoreDrop(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.LogSnapshot("d", 1, mkInst([3]int64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if err := st.LogDrop("d"); err != nil {
		t.Fatal(err)
	}
	got, err := st.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("recovered %+v after drop, want none", got)
	}
}

// TestStoreSkipsUnacknowledgedDir checks a dataset directory with no
// snapshot (crash before the snapshot rename, which leaves only the temp
// file) is cleaned up, not surfaced.
func TestStoreSkipsUnacknowledgedDir(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "ds-6a756e6b")
	if err := os.MkdirAll(junk, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(junk, ".tmp-snap-123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("recovered %+v from junk dir, want none", got)
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Fatalf("junk dataset dir survived recovery: %v", err)
	}
}

// TestStoreCorruptSnapshotFailsLoudly checks that a snapshot file which
// does not decode — corruption, or a directory in the pre-frame UCQW
// format or the older value layout's record kinds — fails recovery with an error naming the file, and that the
// dataset directory stays on disk for an operator to inspect.
func TestStoreCorruptSnapshotFailsLoudly(t *testing.T) {
	valid := record(t, 1, nil)
	for _, snap := range [][]byte{[]byte("torn"), oldFormatRecord(), oldKindRecord(1), valid[:len(valid)-1], append(valid, 0)} {
		dir := t.TempDir()
		ds := filepath.Join(dir, "ds-6a756e6b")
		if err := os.MkdirAll(ds, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(ds, "snap-1.dat"), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Recover(0)
		st.Close()
		if err == nil || !strings.Contains(err.Error(), filepath.Join(ds, "snap-1.dat")) {
			t.Fatalf("snapshot %q: Recover = %+v, %v; want an error naming the file", snap, got, err)
		}
		if _, err := os.Stat(filepath.Join(ds, "snap-1.dat")); err != nil {
			t.Fatalf("snapshot %q: the dataset directory did not survive: %v", snap, err)
		}
	}
}

// oldFormatRecord is an empty version-1 instance in the pre-frame record
// format: "UCQW" magic, length, CRC-32, then version u64 and relation
// count u32.
func oldFormatRecord() []byte {
	payload := binary.LittleEndian.AppendUint64(nil, 1)
	payload = binary.LittleEndian.AppendUint32(payload, 0)
	rec := binary.LittleEndian.AppendUint32(nil, 0x55435157)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

// oldKindRecord is a version-v record of one row R(1,1) as the older value
// layout framed it: the same frames under record kinds 16 and 17. Its
// words packed an 8-bit tag over a 56-bit payload, so it must not decode.
func oldKindRecord(v uint64) []byte {
	rec := wire.AppendFrame(nil, 16, []byte{2, 1, 'R'})
	rec = wire.AppendFrame(rec, wire.KindBlock, wire.AppendBlock(nil, []database.Value{1, 1}, 2, 1))
	return wire.AppendFrame(rec, 17, []byte{byte(v), 1})
}

// wideInstance is a relation of arity wire.MaxArity spanning three block
// frames, with the int64 extremes and values beyond 2^55, beside a nullary
// relation.
func wideInstance() *database.Instance {
	inst := database.NewInstance()
	w := database.NewRelation("W", wire.MaxArity)
	row := make([]database.Value, wire.MaxArity)
	for r := 0; r < 2*wire.BlockRows(wire.MaxArity)+1; r++ {
		for c := range row {
			switch (r + c) % 4 {
			case 0:
				row[c] = database.V(math.MaxInt64)
			case 1:
				row[c] = database.V(math.MinInt64)
			case 2:
				row[c] = database.V(int64(r-c) << 50)
			default:
				row[c] = database.V(-1)
			}
		}
		w.Append(row...)
	}
	inst.AddRelation(w)
	n := database.NewRelation("N", 0)
	n.Append()
	inst.AddRelation(n)
	return inst
}

// blockFrames counts the block frames in a run of frames.
func blockFrames(t *testing.T, buf []byte) int {
	t.Helper()
	n := 0
	for len(buf) > 0 {
		kind, _, rest, err := wire.SplitFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if kind == wire.KindBlock {
			n++
		}
		buf = rest
	}
	return n
}

// sameRelations compares two instances value for value, arity included.
func sameRelations(t *testing.T, got, want *database.Instance) {
	t.Helper()
	if !slices.Equal(got.Names(), want.Names()) {
		t.Fatalf("relation names %v, want %v", got.Names(), want.Names())
	}
	for _, name := range want.Names() {
		g, w := got.Relation(name), want.Relation(name)
		if g.Arity() != w.Arity() || g.Len() != w.Len() || !slices.Equal(g.Values(0, g.Len()), w.Values(0, w.Len())) {
			t.Fatalf("relation %s: %d rows of arity %d, want %d rows of arity %d, or values differ", name, g.Len(), g.Arity(), w.Len(), w.Arity())
		}
	}
}

// TestStoreWideSnapshot checks a snapshot whose relation spans three block
// frames recovers value for value.
func TestStoreWideSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := wideInstance()
	if err := st.LogSnapshot("w", 1, want); err != nil {
		t.Fatal(err)
	}
	st.Close()
	snap, err := os.ReadFile(filepath.Join(dir, "ds-77", "snap-1.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if n := blockFrames(t, snap); n != 4 { // three for W, one for N
		t.Fatalf("snapshot holds %d block frames, want 4", n)
	}
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.Recover(0)
	if err != nil || len(got) != 1 {
		t.Fatalf("Recover = %+v, %v", got, err)
	}
	sameRelations(t, got[0].Log[0], want)
}

// TestStoreRejectsUnreadable checks the writer refuses what no reader
// accepts — a relation wider than wire.MaxArity — before touching disk.
func TestStoreRejectsUnreadable(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	inst := database.NewInstance()
	inst.AddRelation(database.NewRelation("R", wire.MaxArity+1))
	if err := st.LogSnapshot("d", 1, inst); err == nil {
		t.Fatal("LogSnapshot accepted a relation wider than MaxArity")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("a rejected registration left %d entries on disk", len(entries))
	}
}

// checkCuts truncates the WAL of dataset "d" under dir at every offset in
// cuts and reopens the store. Each reopen must recover exactly the last
// record whose commit frame is intact: bounds[i] is the WAL offset where
// version i+1 ends (bounds[0] = 0 for the snapshot alone) and wants[i] its
// instance. TornTails is 1 unless the cut falls on a record boundary, and
// the WAL is left truncated to that boundary.
func checkCuts(t *testing.T, dir string, wal []byte, bounds []int, wants []*database.Instance, cuts []int) {
	t.Helper()
	walPath := filepath.Join(dir, "ds-64", "wal.dat")
	for _, cut := range cuts {
		if err := os.WriteFile(walPath, wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Recover(0)
		torn := st.Stats().TornTails
		st.Close()
		if err != nil || len(got) != 1 {
			t.Fatalf("cut %d: Recover = %+v, %v", cut, got, err)
		}
		i := 0
		for i+1 < len(bounds) && bounds[i+1] <= cut {
			i++
		}
		if got[0].Version != uint64(i+1) {
			t.Fatalf("cut %d: recovered v%d, want v%d", cut, got[0].Version, i+1)
		}
		sameRelations(t, got[0].Log[0], wants[i])
		if wantTorn := int64(min(1, cut-bounds[i])); torn != wantTorn {
			t.Fatalf("cut %d: TornTails = %d, want %d", cut, torn, wantTorn)
		}
		if left, err := os.ReadFile(walPath); err != nil || len(left) != bounds[i] {
			t.Fatalf("cut %d: WAL left at %d bytes (%v), want %d", cut, len(left), err, bounds[i])
		}
	}
}

// logAll registers base as dataset "d" at v1 and logs each delta at the
// next version. It returns the WAL bytes, the record boundaries and the
// instance at every version.
func logAll(t *testing.T, dir string, base *database.Instance, deltas ...map[string]*database.Relation) ([]byte, []int, []*database.Instance) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LogSnapshot("d", 1, base); err != nil {
		t.Fatal(err)
	}
	bounds, wants := []int{0}, []*database.Instance{base}
	for i, d := range deltas {
		if err := st.LogAppend("d", uint64(i+2), d); err != nil {
			t.Fatal(err)
		}
		next, err := wants[i].Extend(func() *database.Instance {
			inst := database.NewInstance()
			for _, rel := range d {
				inst.AddRelation(rel.Clone())
			}
			return inst
		}())
		if err != nil {
			t.Fatal(err)
		}
		bounds, wants = append(bounds, int(st.Stats().WALBytes)), append(wants, next)
	}
	st.Close()
	wal, err := os.ReadFile(filepath.Join(dir, "ds-64", "wal.dat"))
	if err != nil || len(wal) != bounds[len(bounds)-1] {
		t.Fatalf("WAL %d bytes (%v), want %d", len(wal), err, bounds[len(bounds)-1])
	}
	return wal, bounds, wants
}

// TestStoreCrashAtEveryOffset cuts the WAL at every byte offset: a crash
// mid-append leaves exactly such a prefix, and recovery must come back at
// the last acknowledged append. The three appends touch two relations at
// once, a nullary relation, and a relation whose rows hold the int64
// extremes.
func TestStoreCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	base := database.NewInstance()
	r := database.NewRelation("R", 2)
	r.Append(database.V(5|3<<56), database.V(math.MinInt64))
	base.AddRelation(r)
	base.AddRelation(database.NewRelation("N", 0))
	nullary := database.NewRelation("N", 0)
	nullary.Append()
	wal, bounds, wants := logAll(t, dir, base,
		delta(map[string][][]int64{"R": {{1, 2}}, "S": {{3}, {4}}}),
		map[string]*database.Relation{"N": nullary},
		delta(map[string][][]int64{"R": {{math.MaxInt64, -1}}}),
	)
	cuts := make([]int, len(wal)+1)
	for i := range cuts {
		cuts[i] = i
	}
	checkCuts(t, dir, wal, bounds, wants, cuts)
}

// TestStoreCrashInsideWideAppend cuts an append spanning three block
// frames at every frame boundary and one byte either side of it.
func TestStoreCrashInsideWideAppend(t *testing.T) {
	dir := t.TempDir()
	rows := make([][]int64, 2*wire.BlockRows(1024)+1)
	for i := range rows {
		rows[i] = make([]int64, 1024)
		for c := range rows[i] {
			rows[i][c] = int64(i*c) - 1<<40
		}
	}
	wal, bounds, wants := logAll(t, dir, database.NewInstance(), delta(map[string][][]int64{"W": rows}))
	if n := blockFrames(t, wal); n != 3 {
		t.Fatalf("append spans %d block frames, want 3", n)
	}
	var cuts []int
	for rest := wal; ; {
		at := len(wal) - len(rest)
		cuts = append(cuts, max(at-1, 0), at, min(at+1, len(wal)))
		if len(rest) == 0 {
			break
		}
		_, _, next, err := wire.SplitFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = next
	}
	checkCuts(t, dir, wal, bounds, wants, cuts)
}
