package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/database"
)

// FuzzAnswerFrame throws arbitrary bytes at the frame decoder. The
// invariants: no panic, no unbounded allocation (the decoder enforces
// MaxFramePayload/MaxBlockRows before allocating), errors are one of
// io.EOF / io.ErrUnexpectedEOF / ErrFormat-wrapped, and any stream the
// decoder fully accepts must re-encode to a stream that decodes to the
// same tuples, markers and trailer.
func FuzzAnswerFrame(f *testing.F) {
	seed := func(build func(e *Encoder)) []byte {
		var buf bytes.Buffer
		e, err := NewEncoder(&buf, 2)
		if err != nil {
			f.Fatal(err)
		}
		build(e)
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add(seed(func(e *Encoder) {
		e.Trailer(Trailer{Done: true})
	}))
	f.Add(seed(func(e *Encoder) {
		e.AppendBatch([]database.Value{database.V(1), database.V(-2), database.V(3 | 9<<56), database.V(math.MaxInt64)}, 2)
		e.Marker(5)
		e.AppendBatch(database.Tuple{database.V(7), database.V(7)}, 1)
		e.Trailer(Trailer{Done: true, Count: 3, Mode: "auto"})
	}))
	f.Add(seed(func(e *Encoder) {
		e.AppendBatch(database.Tuple{database.V(0), database.V(0)}, 1)
		e.FlushBlock()
		e.Trailer(Trailer{Done: false, Error: "spill: disk full", Count: 1})
	}))
	f.Add(AppendFrame(nil, KindHeader, []byte{headerVersion, 0, 0, 0, 0, 0, 0}))
	f.Add(AppendFrame(nil, KindBlock, []byte{1, 2, 3}))
	f.Add([]byte{0x46, 0x51, 0x43, 0x55, 0x02, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(bytes.NewReader(data))
		var tuples []database.Tuple
		var markers []uint64
		var trailer *Trailer
		arity := -1
		clean := false
		for i := 0; i < 1<<12; i++ {
			fr, err := d.Next()
			if err == io.EOF {
				clean = d.SawTrailer()
				break
			}
			if err != nil {
				if err != io.ErrUnexpectedEOF && !errors.Is(err, ErrFormat) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			switch fr.Kind {
			case KindHeader:
				arity = fr.Arity
			case KindBlock:
				for _, tp := range fr.Tuples {
					if len(tp) != arity {
						t.Fatalf("block tuple arity %d, header %d", len(tp), arity)
					}
					tuples = append(tuples, tp.Clone())
				}
			case KindMarker:
				markers = append(markers, fr.Marker)
			case KindTrailer:
				trailer = fr.Trailer
			}
		}
		if !clean || trailer == nil {
			return
		}
		// Accepted stream: re-encode and check the round trip.
		var buf bytes.Buffer
		e, err := NewEncoder(&buf, arity)
		if err != nil {
			t.Fatalf("re-encode NewEncoder(%d): %v", arity, err)
		}
		for _, tp := range tuples {
			if err := e.AppendBatch(tp, 1); err != nil {
				t.Fatalf("re-encode AppendBatch: %v", err)
			}
		}
		for _, m := range markers {
			if err := e.Marker(m); err != nil {
				t.Fatalf("re-encode Marker: %v", err)
			}
		}
		if err := e.Trailer(*trailer); err != nil {
			t.Fatalf("re-encode Trailer: %v", err)
		}
		d2 := NewDecoder(bytes.NewReader(buf.Bytes()))
		var tuples2 []database.Tuple
		var trailer2 *Trailer
		for {
			fr, err := d2.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if fr.Kind == KindBlock {
				for _, tp := range fr.Tuples {
					tuples2 = append(tuples2, tp.Clone())
				}
			}
			if fr.Kind == KindTrailer {
				trailer2 = fr.Trailer
			}
		}
		if len(tuples2) != len(tuples) {
			t.Fatalf("re-decode %d tuples, want %d", len(tuples2), len(tuples))
		}
		for i := range tuples {
			for j := range tuples[i] {
				if tuples2[i][j] != tuples[i][j] {
					t.Fatalf("re-decode tuple %d[%d] = %v, want %v", i, j, tuples2[i][j], tuples[i][j])
				}
			}
		}
		if trailer2 == nil || *trailer2 != *trailer {
			t.Fatalf("re-decode trailer %+v, want %+v", trailer2, trailer)
		}
	})
}

// FuzzParseTupleNDJSON pins the reuse contract of the NDJSON answer parser:
// parsing a line into a junk-filled dst gives the same tuple and the same
// error as parsing it into nil, and writes into dst's array instead of
// allocating. The input is split into lines that all parse into the same
// dst, so a shorter line after a longer one sees the longer one's leftovers.
// Every accepted line also survives AppendTupleNDJSON and a second parse.
func FuzzParseTupleNDJSON(f *testing.F) {
	for _, tp := range []database.Tuple{
		{database.V(1_000_003), database.V(1_021), database.V(2_000_017)},
		{database.V(13 | 2<<56), database.V(-1)},
		{database.V(-5), database.V(0), database.V(-1)},
		{database.V(1<<55 - 1), database.V(-1 << 55)},
		{database.V(math.MaxInt64), database.V(math.MinInt64)},
	} {
		f.Add(AppendTupleNDJSON(nil, tp))
	}
	f.Add([]byte("[]"))
	f.Add([]byte("[]\n[]"))
	f.Add([]byte("[1,2,3,4,5]\n[6]\n[]"))
	f.Add([]byte(` [ 007 , "3#4" ] `))
	f.Add([]byte(`[1,"2#0"]`))
	f.Add([]byte("[72057594037927936]"))

	f.Fuzz(func(t *testing.T, data []byte) {
		junk := make(database.Tuple, len(data)+1) // longer than any line's answer
		for i := range junk {
			junk[i] = database.V(int64(-i) - 0x2B<<56)
		}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			want, wantErr := ParseTupleNDJSON(nil, line)
			got, gotErr := ParseTupleNDJSON(junk, line)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%q: error into nil %v, into junk %v", line, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !got.Equal(want) {
				t.Fatalf("%q: into junk %v, into nil %v", line, got, want)
			}
			if len(got) > 0 && &got[0] != &junk[0] {
				t.Fatalf("%q: parse into a long enough dst allocated", line)
			}
			again, err := ParseTupleNDJSON(junk, AppendTupleNDJSON(nil, want))
			if err != nil || !again.Equal(want) {
				t.Fatalf("%q: round trip gave %v, %v; want %v", line, again, err, want)
			}
		}
	})
}
