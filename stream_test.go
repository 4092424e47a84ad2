package ucq_test

// Client-side decoding of answer streams: the width rule of the NDJSON
// decoder, and the client-decode layer benchmark with its allocation test.
// The decoders are driven through DecodeAnswerStream and
// DecodeSubscriptionStream only; the bodies come from the server's own
// codecs (AppendTupleJSON and the wire frame encoder).

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	ucq "repro"
	"repro/internal/wire"
)

func TestNDJSONDecodeRejectsMixedWidth(t *testing.T) {
	const body = "[1,2]\n[3]\n[]\n{\"done\":true,\"count\":3}\n"
	n := 0
	_, err := ucq.DecodeAnswerStream(strings.NewReader(body), ucq.MediaTypeNDJSON, func(ucq.Tuple) bool { n++; return true })
	if err == nil || !strings.Contains(err.Error(), `"[3]"`) {
		t.Fatalf("answer stream of widths 2, 1, 0: err = %v, want one quoting [3]", err)
	}
	if n != 1 {
		t.Fatalf("yielded %d answers before the error, want 1", n)
	}

	const sub = "[1,2]\n{\"version\":2}\n[3,4]\n[5,6,7]\n{\"version\":3}\n"
	n = 0
	_, err = ucq.DecodeSubscriptionStream(strings.NewReader(sub), ucq.MediaTypeNDJSON,
		func(ucq.Tuple) bool { n++; return true },
		func(ucq.SubscriptionEvent) bool { return true })
	if err == nil || !strings.Contains(err.Error(), `"[5,6,7]"`) {
		t.Fatalf("subscription stream of widths 2, 2, 3: err = %v, want one quoting [5,6,7]", err)
	}
	if n != 2 {
		t.Fatalf("yielded %d answers before the error, want 2", n)
	}
}

func TestNDJSONDecodeNullaryStream(t *testing.T) {
	const body = "[]\n[]\n{\"done\":true,\"count\":2}\n"
	n := 0
	tr, err := ucq.DecodeAnswerStream(strings.NewReader(body), ucq.MediaTypeNDJSON, func(tp ucq.Tuple) bool {
		if len(tp) != 0 {
			t.Fatalf("nullary answer decoded as %v", tp)
		}
		n++
		return true
	})
	if err != nil || tr == nil || !tr.Done || tr.Count != 2 || n != 2 {
		t.Fatalf("nullary stream: %d answers, trailer %+v, err %v", n, tr, err)
	}
}

// serveStreamBody renders n answers of the serve-stream workload's shape —
// (x, z, y) with x around 1e6, the join key z around 1e3 and y around 2e6 —
// as a complete response body in the given encoding, blocked like the
// server flushes: the first answer alone, then every 256.
func serveStreamBody(tb testing.TB, media string, n int) []byte {
	tb.Helper()
	const left, right = 20, 10 // answers per join key: left·right
	flat := make([]ucq.Value, 0, 3*n)
	for a := 0; a < n; a++ {
		z, i, j := a/(left*right), a/right%left, a%right
		flat = append(flat, ucq.V(int64(1_000_000+z*left+i)), ucq.V(int64(z)), ucq.V(int64(2_000_000+z*right+j)))
	}
	var buf bytes.Buffer
	tr := ucq.StreamTrailer{Done: true, Count: n, Mode: "auto", Cache: "hit"}
	if media == ucq.MediaTypeBinary {
		enc, err := wire.NewEncoder(&buf, 3)
		if err != nil {
			tb.Fatal(err)
		}
		for a := 0; a < n; {
			k := min(256-a%256, n-a)
			if a == 0 {
				k = 1
			}
			if err := enc.AppendBatch(flat[3*a:], k); err != nil {
				tb.Fatal(err)
			}
			if err := enc.FlushBlock(); err != nil {
				tb.Fatal(err)
			}
			a += k
		}
		if err := enc.Trailer(tr); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	var line []byte
	for a := 0; a < n; a++ {
		line = append(ucq.AppendTupleJSON(line[:0], flat[3*a:3*a+3]), '\n')
		buf.Write(line)
	}
	trailer, err := json.Marshal(tr)
	if err != nil {
		tb.Fatal(err)
	}
	buf.Write(append(trailer, '\n'))
	return buf.Bytes()
}

// decodeCount decodes one body, failing the test on an error or an answer
// count that disagrees with the trailer.
func decodeCount(tb testing.TB, body []byte, media string) {
	n := 0
	tr, err := ucq.DecodeAnswerStream(bytes.NewReader(body), media, func(ucq.Tuple) bool { n++; return true })
	if err != nil || tr == nil || tr.Count != n {
		tb.Fatalf("%s: %d answers, trailer %+v, err %v", media, n, tr, err)
	}
}

var decodeMedia = []struct{ name, media string }{
	{"ndjson", ucq.MediaTypeNDJSON},
	{"binary", ucq.MediaTypeBinary},
}

// TestDecodeAnswerStreamAllocsPerStream pins that both decoders allocate
// per stream, not per answer: 10k answers cost no more allocations than 10.
func TestDecodeAnswerStreamAllocsPerStream(t *testing.T) {
	for _, m := range decodeMedia {
		small, large := serveStreamBody(t, m.media, 10), serveStreamBody(t, m.media, 10_000)
		a10 := testing.AllocsPerRun(20, func() { decodeCount(t, small, m.media) })
		a10k := testing.AllocsPerRun(20, func() { decodeCount(t, large, m.media) })
		if a10k > a10 {
			t.Errorf("%s: decoding 10k answers allocates %.0f times, 10 answers %.0f", m.name, a10k, a10)
		}
	}
}

// BenchmarkDecodeAnswerStream is the client-decode layer benchmark: one
// 200k-answer serve-stream body per encoding, decoded through
// DecodeAnswerStream, in ns/answer and allocs/answer.
func BenchmarkDecodeAnswerStream(b *testing.B) {
	const answers = 200_000
	for _, m := range decodeMedia {
		b.Run(m.name, func(b *testing.B) {
			body := serveStreamBody(b, m.media, answers)
			b.SetBytes(int64(len(body)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decodeCount(b, body, m.media)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N * answers)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/answer")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/answer")
		})
	}
}
