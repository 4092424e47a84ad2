package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/database"
)

// collect decodes a whole stream, returning tuples, markers and trailer.
func collect(t *testing.T, b []byte) ([]database.Tuple, []uint64, *Trailer) {
	t.Helper()
	d := NewDecoder(bytes.NewReader(b))
	var tuples []database.Tuple
	var markers []uint64
	var tr *Trailer
	for {
		f, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		switch f.Kind {
		case KindBlock:
			for _, tp := range f.Tuples {
				tuples = append(tuples, tp.Clone())
			}
		case KindMarker:
			markers = append(markers, f.Marker)
		case KindTrailer:
			tr = f.Trailer
		}
	}
	return tuples, markers, tr
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []database.Tuple{
		{database.V(1), database.V(2), database.V(3)},
		{database.V(1), database.V(5), database.V(-9)},
		{database.V(42 | 7<<56), database.V(math.MaxInt64), database.V(math.MinInt64)},
	}
	for i, tp := range want {
		if err := e.AppendBatch(tp, 1); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := e.Marker(4); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Trailer(Trailer{Done: true, Count: 3, Mode: "auto"}); err != nil {
		t.Fatal(err)
	}

	tuples, markers, tr := collect(t, buf.Bytes())
	if len(tuples) != len(want) {
		t.Fatalf("decoded %d tuples, want %d", len(tuples), len(want))
	}
	for i := range want {
		if len(tuples[i]) != len(want[i]) {
			t.Fatalf("tuple %d arity %d, want %d", i, len(tuples[i]), len(want[i]))
		}
		for j := range want[i] {
			if tuples[i][j] != want[i][j] {
				t.Fatalf("tuple %d[%d] = %v, want %v", i, j, tuples[i][j], want[i][j])
			}
		}
	}
	if len(markers) != 1 || markers[0] != 4 {
		t.Fatalf("markers = %v, want [4]", markers)
	}
	if tr == nil || !tr.Done || tr.Count != 3 || tr.Mode != "auto" {
		t.Fatalf("trailer = %+v", tr)
	}
}

func TestRoundTripArityZero(t *testing.T) {
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AppendBatch(database.Tuple{}, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Trailer(Trailer{Done: true, Count: 1}); err != nil {
		t.Fatal(err)
	}
	tuples, _, tr := collect(t, buf.Bytes())
	if len(tuples) != 1 || len(tuples[0]) != 0 {
		t.Fatalf("tuples = %v, want one empty tuple", tuples)
	}
	if tr == nil || !tr.Done || tr.Count != 1 {
		t.Fatalf("trailer = %+v", tr)
	}
}

func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Trailer(Trailer{Done: true}); err != nil {
		t.Fatal(err)
	}
	tuples, markers, tr := collect(t, buf.Bytes())
	if len(tuples) != 0 || len(markers) != 0 {
		t.Fatalf("tuples=%v markers=%v, want none", tuples, markers)
	}
	if tr == nil || !tr.Done {
		t.Fatalf("trailer = %+v", tr)
	}
}

func TestRoundTripManyBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want []database.Tuple
	for i := 0; i < 5000; i++ {
		tp := database.Tuple{
			database.V(rng.Int63n(1<<40) - (1 << 39) + int64(rng.Intn(4))<<56),
			database.V(rng.Int63n(1000)),
		}
		want = append(want, tp)
		if err := e.AppendBatch(tp, 1); err != nil {
			t.Fatal(err)
		}
		if i%257 == 0 {
			if err := e.FlushBlock(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Trailer(Trailer{Done: true, Count: len(want)}); err != nil {
		t.Fatal(err)
	}
	tuples, _, tr := collect(t, buf.Bytes())
	if len(tuples) != len(want) {
		t.Fatalf("decoded %d tuples, want %d", len(tuples), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if tuples[i][j] != want[i][j] {
				t.Fatalf("tuple %d[%d] = %v, want %v", i, j, tuples[i][j], want[i][j])
			}
		}
	}
	if tr == nil || tr.Count != len(want) {
		t.Fatalf("trailer = %+v", tr)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	e, _ := NewEncoder(&buf, 1)
	for i := 0; i < 10; i++ {
		e.AppendBatch(database.Tuple{database.V(int64(i))}, 1)
	}
	e.FlushBlock()
	e.Trailer(Trailer{Done: true, Count: 10})
	full := buf.Bytes()

	for cut := 1; cut < len(full); cut++ {
		d := NewDecoder(bytes.NewReader(full[:len(full)-cut]))
		sawTrailer := false
		for {
			f, err := d.Next()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("cut %d: unexpected error %v", cut, err)
				}
				break
			}
			if f.Kind == KindTrailer {
				sawTrailer = true
			}
		}
		if sawTrailer || d.SawTrailer() {
			t.Fatalf("cut %d: truncated stream reported a trailer", cut)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	e, _ := NewEncoder(&buf, 2)
	e.AppendBatch(database.Tuple{database.V(1), database.V(2)}, 1)
	e.Trailer(Trailer{Done: true, Count: 1})
	full := buf.Bytes()

	for i := range full {
		b := append([]byte(nil), full...)
		b[i] ^= 0x41
		d := NewDecoder(bytes.NewReader(b))
		for {
			_, err := d.Next()
			if err != nil {
				break
			}
		}
	}
	// A flipped bit inside a payload must surface as ErrFormat (checksum).
	b := append([]byte(nil), full...)
	b[frameHeaderLen] ^= 1 // first header payload byte
	d := NewDecoder(bytes.NewReader(b))
	_, err := d.Next()
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("corrupt payload: err = %v, want ErrFormat", err)
	}
}

func TestStructuralRules(t *testing.T) {
	// Block before header.
	raw := AppendFrame(nil, KindBlock, []byte{1, 2})
	d := NewDecoder(bytes.NewReader(raw))
	if _, err := d.Next(); !errors.Is(err, ErrFormat) {
		t.Fatalf("block before header: %v, want ErrFormat", err)
	}

	// Duplicate header: concatenating two streams must fail at the second
	// header frame.
	var buf bytes.Buffer
	e, _ := NewEncoder(&buf, 1)
	e.AppendBatch(database.Tuple{database.V(1)}, 1)
	e.FlushBlock()
	doubled := append(append([]byte(nil), buf.Bytes()...), buf.Bytes()...)
	d = NewDecoder(bytes.NewReader(doubled))
	var err error
	for err == nil {
		_, err = d.Next()
	}
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("duplicate header: %v, want ErrFormat", err)
	}

	// Unknown kind.
	raw = AppendFrame(nil, Kind(9), nil)
	d = NewDecoder(bytes.NewReader(raw))
	if _, err := d.Next(); !errors.Is(err, ErrFormat) {
		t.Fatalf("unknown kind: %v, want ErrFormat", err)
	}

	// Header metadata: the encoder always writes a zero length, and a
	// header that declares any other length is rejected, payload or not.
	buf.Reset()
	e, _ = NewEncoder(&buf, 1)
	e.Trailer(Trailer{Done: true})
	if got := buf.Bytes()[frameHeaderLen+4 : frameHeaderLen+8]; !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("encoder meta length bytes = %v, want zero", got)
	}
	for _, p := range [][]byte{
		{headerVersion, 1, 0, codecDeltaVarint, 2, 0, 0, 0, '{', '}'},
		{headerVersion, 1, 0, codecDeltaVarint, 2, 0, 0, 0},
	} {
		d = NewDecoder(bytes.NewReader(AppendFrame(nil, KindHeader, p)))
		if _, err := d.Next(); !errors.Is(err, ErrFormat) {
			t.Fatalf("header meta length 2 (%d payload bytes): %v, want ErrFormat", len(p), err)
		}
	}
}

func TestNDJSONTupleRoundTrip(t *testing.T) {
	cases := []database.Tuple{
		{},
		{database.V(0)},
		{database.V(-5), database.V(7)},
		{database.V(13 | 2<<56), database.V(math.MaxInt64)},
		{database.V(math.MinInt64), database.V(-1)},
	}
	for _, tp := range cases {
		line := AppendTupleNDJSON(nil, tp)
		got, err := ParseTupleNDJSON(nil, line)
		if err != nil {
			t.Fatalf("parse %s: %v", line, err)
		}
		if len(got) != len(tp) {
			t.Fatalf("parse %s: arity %d, want %d", line, len(got), len(tp))
		}
		for i := range tp {
			if got[i] != tp[i] {
				t.Fatalf("parse %s: [%d] = %v, want %v", line, i, got[i], tp[i])
			}
		}
		// With trailing newline too, as read off the stream.
		if _, err := ParseTupleNDJSON(nil, append(line, '\n')); err != nil {
			t.Fatalf("parse with newline %s: %v", line, err)
		}
	}
}

func TestNDJSONTupleRejects(t *testing.T) {
	bad := []string{
		"", "{", "[1", "[1,]", "[,1]", "[1 2]", "[1]x", `["1#0"]`, `["1#256"]`,
		`["1"]`, `["#1"]`, "[99999999999999999999]", "[1.5]", `[true]`,
		`["3#2"]`, "[9223372036854775808]", "[-9223372036854775809]",
	}
	for _, s := range bad {
		if _, err := ParseTupleNDJSON(nil, []byte(s)); err == nil {
			t.Fatalf("ParseTupleNDJSON(%q) accepted", s)
		}
	}
}

func TestEncoderArityMismatch(t *testing.T) {
	var buf bytes.Buffer
	e, _ := NewEncoder(&buf, 2)
	if err := e.AppendBatch(database.Tuple{database.V(1)}, 1); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// TestAppendBatchSplitsDecodeAlike is the batching round-trip property: any
// split of a tuple sequence into AppendBatch calls — one call, one tuple
// per call, random runs — with a Marker between two batches decodes to the
// same sequence, the marker at its place. It covers arity 0 and a sequence
// that crosses MaxBlockRows.
func TestAppendBatchSplitsDecodeAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, tc := range []struct{ arity, n int }{{0, 300}, {2, 1000}, {1, MaxBlockRows + 300}} {
		flat := make([]database.Value, tc.n*tc.arity)
		for i := range flat {
			flat[i] = database.V(rng.Int63n(1<<20) - (1 << 19) + int64(rng.Intn(3))<<56)
		}
		for trial := 0; trial < 4; trial++ {
			var buf bytes.Buffer
			e, err := NewEncoder(&buf, tc.arity)
			if err != nil {
				t.Fatal(err)
			}
			markAt, marked := rng.Intn(tc.n+1), -1
			for pos := 0; pos < tc.n; {
				if marked < 0 && pos >= markAt {
					if err := e.Marker(7); err != nil {
						t.Fatal(err)
					}
					marked = pos
				}
				k := tc.n - pos
				switch trial {
				case 1:
					k = 1
				case 2, 3:
					k = min(k, 1+rng.Intn(600))
				}
				// The values may run past the k answers, as a cut batch does.
				if err := e.AppendBatch(flat[pos*tc.arity:], k); err != nil {
					t.Fatal(err)
				}
				pos += k
			}
			if marked < 0 {
				if err := e.Marker(7); err != nil {
					t.Fatal(err)
				}
				marked = tc.n
			}
			if err := e.Trailer(Trailer{Done: true, Count: tc.n}); err != nil {
				t.Fatal(err)
			}

			d := NewDecoder(bytes.NewReader(buf.Bytes()))
			var got []database.Value
			rows, markerAt := 0, -1
			for {
				f, err := d.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("arity %d trial %d: %v", tc.arity, trial, err)
				}
				switch f.Kind {
				case KindBlock:
					for _, tp := range f.Tuples {
						got = append(got, tp...)
					}
					rows += len(f.Tuples)
				case KindMarker:
					markerAt = rows
				}
			}
			if rows != tc.n || !slices.Equal(got, flat) {
				t.Fatalf("arity %d trial %d: decoded %d rows, sequence equal %v; want %d rows", tc.arity, trial, rows, slices.Equal(got, flat), tc.n)
			}
			if markerAt != marked {
				t.Fatalf("arity %d trial %d: marker after row %d, want %d", tc.arity, trial, markerAt, marked)
			}
		}
	}
}

// TestDecoderReusesBlockBuffers pins that a steady binary stream decodes
// block after block without allocating: the values, the tuple views and
// the Frame are all reused.
func TestDecoderReusesBlockBuffers(t *testing.T) {
	var buf bytes.Buffer
	e, _ := NewEncoder(&buf, 3)
	vals := make([]database.Value, 256*3)
	for i := range vals {
		vals[i] = database.V(int64(i))
	}
	for i := 0; i < 101; i++ {
		if err := e.AppendBatch(vals, 256); err != nil {
			t.Fatal(err)
		}
		if err := e.FlushBlock(); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	next := func() {
		if f, err := d.Next(); err != nil || (f.Kind == KindBlock && len(f.Tuples) != 256) {
			t.Fatalf("frame %+v, %v", f, err)
		}
	}
	next() // header
	next() // first block sizes the buffers
	if n := testing.AllocsPerRun(99, next); n > 0 {
		t.Errorf("%.1f allocations per 256-row block, want 0", n)
	}
}

// TestWideUnflushedRoundTrip appends 2000 rows of arity MaxArity without
// flushing, each column alternating between the raw words 1<<62 and 0, so
// every delta takes nine or ten varint bytes. Cut at MaxBlockRows alone,
// that is one 77 824 002-byte block the decoder refuses; cut at the value
// budget it is 125 blocks that decode.
func TestWideUnflushedRoundTrip(t *testing.T) {
	const rows = 2000
	pr, pw := io.Pipe()
	go func() {
		e, err := NewEncoder(pw, MaxArity)
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		row := make([]database.Value, MaxArity)
		for r := 0; r < rows && err == nil; r++ {
			for c := range row {
				row[c] = database.Value(int64(1-r%2) << 62)
			}
			err = e.AppendBatch(row, 1)
		}
		if err == nil {
			err = e.Trailer(Trailer{Done: true, Count: rows})
		}
		pw.CloseWithError(err)
	}()
	d := NewDecoder(pr)
	got := 0
	for {
		f, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d rows: %v", got, err)
		}
		if f.Kind != KindBlock {
			continue
		}
		if len(f.Tuples) > BlockRows(MaxArity) {
			t.Fatalf("block of %d rows, budget %d", len(f.Tuples), BlockRows(MaxArity))
		}
		for _, tp := range f.Tuples {
			want := database.Value(int64(1-got%2) << 62)
			for c, v := range tp {
				if v != want {
					t.Fatalf("row %d col %d = %#x, want %#x", got, c, int64(v), int64(want))
				}
			}
			got++
		}
	}
	if got != rows || !d.SawTrailer() {
		t.Fatalf("decoded %d rows (trailer %v), want %d", got, d.SawTrailer(), rows)
	}
}

// TestDecoderRejectsOverBudgetBlock checks the decoder refuses a block
// holding more tuples than BlockRows allows for its arity.
func TestDecoderRejectsOverBudgetBlock(t *testing.T) {
	const arity = 64
	vals := make([]database.Value, (BlockRows(arity)+1)*arity)
	for _, n := range []int{BlockRows(arity), BlockRows(arity) + 1} {
		// Version, arity, one delta-varint codec byte per column, and a
		// zero metadata length.
		hdr := append([]byte{headerVersion, arity, 0}, make([]byte, arity+4)...)
		stream := AppendFrame(nil, KindHeader, hdr)
		stream = AppendFrame(stream, KindBlock, AppendBlock(nil, vals, arity, n))
		d := NewDecoder(bytes.NewReader(stream))
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
		_, err := d.Next()
		if ok := n <= BlockRows(arity); ok != (err == nil) || (!ok && !errors.Is(err, ErrFormat)) {
			t.Fatalf("block of %d rows at arity %d: %v", n, arity, err)
		}
	}
}
