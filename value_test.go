package ucq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
)

// FuzzValueRoundTrip sends two rows of arbitrary int64 values through every
// codec a value crosses — CSV, a JSON instance, an NDJSON answer line, both
// answer-stream encodings, and a WAL record read back by recovery — and
// wants the same values back from each.
func FuzzValueRoundTrip(f *testing.F) {
	const p55 = 1 << 55
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), int64(0), int64(1))
	f.Add(int64(-1), int64(p55+1), int64(p55-1), int64(-p55+1))
	f.Add(int64(-p55-1), int64(-p55), int64(p55), int64(-1))
	f.Fuzz(func(t *testing.T, a, b, c, d int64) {
		rows := [][]int64{{a, b}, {c, d}}
		rel := NewRelation("R", 2)
		for _, row := range rows {
			rel.AppendInts(row...)
		}
		check := func(what string, got [][]int64) {
			t.Helper()
			if !slices.EqualFunc(got, rows, slices.Equal) {
				t.Fatalf("%s: got %v, want %v", what, got, rows)
			}
		}
		inOrder := func(rel *Relation) [][]int64 {
			got := relationRows(rel)
			if slices.Compare(rows[0], rows[1]) > 0 {
				slices.Reverse(got) // WriteRelationCSV sorts its rows
			}
			return got
		}

		var csv bytes.Buffer
		if err := WriteRelationCSV(&csv, rel); err != nil {
			t.Fatal(err)
		}
		back, err := ReadRelationCSV(&csv, "R")
		if err != nil {
			t.Fatalf("CSV: %v", err)
		}
		check("CSV", inOrder(back))

		inst, err := ReadInstanceJSON(strings.NewReader(fmt.Sprintf(`{"R": [[%d, %d], [%d, %d]]}`, a, b, c, d)))
		if err != nil {
			t.Fatalf("JSON instance: %v", err)
		}
		check("JSON instance", relationRows(inst.Relation("R")))

		var ndjson, binary bytes.Buffer
		enc, err := wire.NewEncoder(&binary, 2)
		if err != nil {
			t.Fatal(err)
		}
		var lines [][]int64
		for i := range rows {
			line := AppendTupleJSON(nil, rel.Row(i))
			tup, err := wire.ParseTupleNDJSON(nil, line)
			if err != nil {
				t.Fatalf("NDJSON line %s: %v", line, err)
			}
			lines = append(lines, ints(tup))
			ndjson.Write(append(line, '\n'))
			if err := enc.AppendBatch(rel.Row(i), 1); err != nil {
				t.Fatal(err)
			}
		}
		check("NDJSON line", lines)
		trailer := StreamTrailer{Done: true, Count: len(rows)}
		if err := enc.Trailer(trailer); err != nil {
			t.Fatal(err)
		}
		tj, err := json.Marshal(trailer)
		if err != nil {
			t.Fatal(err)
		}
		ndjson.Write(tj)
		for media, body := range map[string]*bytes.Buffer{MediaTypeNDJSON: &ndjson, MediaTypeBinary: &binary} {
			var got [][]int64
			if _, err := DecodeAnswerStream(body, media, func(tup Tuple) bool {
				got = append(got, ints(tup))
				return true
			}); err != nil {
				t.Fatalf("%s stream: %v", media, err)
			}
			check(media+" stream", got)
		}

		dir := t.TempDir()
		cat, st, err := OpenCatalog(dir)
		if err != nil {
			t.Fatal(err)
		}
		first := NewRelation("R", 2)
		first.AppendInts(rows[0]...)
		base := NewInstance()
		base.AddRelation(first)
		ds, err := cat.Register("d", base)
		if err == nil {
			_, err = ds.AppendRows(map[string][][]int64{"R": rows[1:]})
		}
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		cat, st, err = OpenCatalog(dir)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer st.Close()
		rec, ok := cat.Dataset("d")
		if !ok {
			t.Fatal("dataset not recovered")
		}
		check("WAL and recovery", relationRows(rec.Instance().Relation("R")))
	})
}

// ints returns a tuple's values as int64s.
func ints(tup Tuple) []int64 {
	out := make([]int64, len(tup))
	for i, v := range tup {
		out[i] = int64(v)
	}
	return out
}

// TestWriteRelationCSVNegativesFirst pins WriteRelationCSV's order: by
// value, so a row with -1 comes before a row with 5.
func TestWriteRelationCSVNegativesFirst(t *testing.T) {
	rel := NewRelation("R", 1)
	for _, v := range []int64{5, math.MaxInt64, -1, math.MinInt64, 0} {
		rel.AppendInts(v)
	}
	var buf bytes.Buffer
	if err := WriteRelationCSV(&buf, rel); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "-9223372036854775808\n-1\n0\n5\n9223372036854775807\n"; got != want {
		t.Errorf("WriteRelationCSV wrote %q, want %q", got, want)
	}
}

// TestOldFormatsFailLoudly: values were once an 8-bit tag over a 56-bit
// payload, so a negative value's word differs between the layouts. A
// binary answer stream with the old header version and a snapshot framed
// with the old record kinds (16 and 17, two below today's) must fail, not
// be misread.
func TestOldFormatsFailLoudly(t *testing.T) {
	var stream bytes.Buffer
	enc, err := wire.NewEncoder(&stream, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.AppendBatch(Tuple{V(-1)}, 1); err != nil {
		t.Fatal(err)
	}
	if err := enc.Trailer(StreamTrailer{Done: true, Count: 1}); err != nil {
		t.Fatal(err)
	}
	kind, header, rest, err := wire.SplitFrame(stream.Bytes())
	if err != nil || kind != wire.KindHeader {
		t.Fatalf("first frame: kind %d, %v", kind, err)
	}
	header = slices.Clone(header)
	header[0] = 1 // the format version
	old := append(wire.AppendFrame(nil, kind, header), rest...)
	if _, err := DecodeAnswerStream(bytes.NewReader(old), MediaTypeBinary, func(Tuple) bool { return true }); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 stream: err = %v, want a format version error", err)
	}

	dir := t.TempDir()
	cat, st, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := InstanceFromRows(map[string][][]int64{"R": {{-1, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cat.Register("d", inst)
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "*", "snap-*.dat"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v, %v; want one", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	var reframed []byte
	for len(data) > 0 {
		kind, p, rest, err := wire.SplitFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		if kind != wire.KindBlock {
			kind -= 2
		}
		reframed, data = wire.AppendFrame(reframed, kind, p), rest
	}
	if err := os.WriteFile(snaps[0], reframed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenCatalog(dir); err == nil || !strings.Contains(err.Error(), "does not decode") {
		t.Errorf("old-kind snapshot: OpenCatalog err = %v, want it not to decode", err)
	}
}
