package server

// Answer-stream encoding: the pluggable seam between the enumeration loops
// (stream, subscriptions) and the bytes on the socket. Two client encodings
// exist — NDJSON text and the internal/wire binary columnar frames —
// negotiated per request via the Accept header. Every stream writes
// through a sized buffered writer flushed at the FlushEvery cadence
// instead of one syscall per answer.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/database"
	"repro/internal/wire"
)

// streamBufSize is the per-stream write buffer. Answers accumulate here
// between FlushEvery boundaries; one buffer flush replaces hundreds of
// per-row writes.
const streamBufSize = 32 << 10

// negotiateEncoding picks the answer encoding from an Accept header. The
// binary encoding must be named exactly and with the highest q-value to
// win; wildcards, unknown media types, ties and absent headers all resolve
// to NDJSON, so every pre-existing client keeps its text stream.
func negotiateEncoding(accept string) string {
	if accept == "" {
		return wire.MediaTypeNDJSON
	}
	binQ, textQ := -1.0, -1.0
	for _, part := range strings.Split(accept, ",") {
		fields := strings.Split(part, ";")
		media := strings.ToLower(strings.TrimSpace(fields[0]))
		q := 1.0
		for _, f := range fields[1:] {
			f = strings.TrimSpace(f)
			if v, ok := strings.CutPrefix(f, "q="); ok {
				parsed, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil || parsed < 0 || parsed > 1 {
					q = -1 // malformed entry: ignore it
				} else {
					q = parsed
				}
			}
		}
		if q < 0 {
			continue
		}
		switch media {
		case wire.MediaTypeBinary:
			if q > binQ {
				binQ = q
			}
		case wire.MediaTypeNDJSON, "*/*", "application/*":
			if q > textQ {
				textQ = q
			}
		}
	}
	if binQ > 0 && binQ > textQ {
		return wire.MediaTypeBinary
	}
	return wire.MediaTypeNDJSON
}

// countingWriter counts the bytes that actually leave for the socket —
// it sits under the stream buffer, so it sees only flushed bytes.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// answerEncoder is the seam both encodings share: the drain loop hands it
// whole answer batches and flushes at flushEvery boundaries, and never
// branches on the wire format. Methods after the first write return the
// latched write error, which the loops treat as a client disconnect.
type answerEncoder interface {
	contentType() string
	// appendBatch encodes n answers given as flat values, row after row.
	appendBatch(vals []database.Value, n int) error
	// subscriptionMarker emits a /subscribe version checkpoint: "the
	// answers above make you complete through version". With resync set it
	// instead announces that the client must discard its state — the full
	// answer set at version follows. NDJSON sends a {"version":…} object;
	// binary packs version<<1|resync into the marker frame's payload.
	subscriptionMarker(version uint64, resync bool) error
	trailer(tr Trailer) error
	flush() error
	// bytesOut is the bytes encoded for the socket so far, flushed plus
	// buffered: once the trailer is encoded it is the exact response size,
	// which lets a stream count itself in /stats before the final flush.
	bytesOut() int64
}

// newAnswerEncoder builds the encoder for one response. arity is the
// answer tuple width (binary streams declare it in their header frame).
func newAnswerEncoder(w http.ResponseWriter, media string, arity int) (answerEncoder, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, streamBufSize)
	fl, _ := w.(http.Flusher)
	if media == wire.MediaTypeBinary {
		enc, err := wire.NewEncoder(bw, arity)
		if err != nil {
			return nil, err
		}
		return &binaryEncoder{enc: enc, bw: bw, cw: cw, fl: fl}, nil
	}
	return &ndjsonEncoder{bw: bw, cw: cw, fl: fl, arity: arity}, nil
}

// ndjsonEncoder is the text protocol: answers as JSON array lines, control
// records as JSON object lines.
type ndjsonEncoder struct {
	bw    *bufio.Writer
	cw    *countingWriter
	fl    http.Flusher
	arity int
	buf   []byte
}

func (e *ndjsonEncoder) contentType() string { return wire.MediaTypeNDJSON }

func (e *ndjsonEncoder) writeJSONLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := e.bw.Write(b); err != nil {
		return err
	}
	return e.bw.WriteByte('\n')
}

// appendBatch formats the batch into one line buffer and writes it once.
func (e *ndjsonEncoder) appendBatch(vals []database.Value, n int) error {
	e.buf = e.buf[:0]
	for i := range n {
		e.buf = wire.AppendTupleNDJSON(e.buf, vals[i*e.arity:(i+1)*e.arity])
		e.buf = append(e.buf, '\n')
	}
	_, err := e.bw.Write(e.buf)
	return err
}

func (e *ndjsonEncoder) subscriptionMarker(version uint64, resync bool) error {
	return e.writeJSONLine(SubscriptionMarker{Version: version, Resync: resync})
}

func (e *ndjsonEncoder) trailer(tr Trailer) error {
	return e.writeJSONLine(tr)
}

func (e *ndjsonEncoder) flush() error {
	if err := e.bw.Flush(); err != nil {
		return err
	}
	if e.fl != nil {
		e.fl.Flush()
	}
	return nil
}

func (e *ndjsonEncoder) bytesOut() int64 { return e.cw.n + int64(e.bw.Buffered()) }

// binaryEncoder wraps the internal/wire columnar frame encoder.
type binaryEncoder struct {
	enc *wire.Encoder
	bw  *bufio.Writer
	cw  *countingWriter
	fl  http.Flusher
}

func (e *binaryEncoder) contentType() string { return wire.MediaTypeBinary }

func (e *binaryEncoder) appendBatch(vals []database.Value, n int) error {
	return e.enc.AppendBatch(vals, n)
}

func (e *binaryEncoder) subscriptionMarker(version uint64, resync bool) error {
	u := version << 1
	if resync {
		u |= 1
	}
	return e.enc.Marker(u)
}

func (e *binaryEncoder) trailer(tr Trailer) error {
	return e.enc.Trailer(tr)
}

func (e *binaryEncoder) flush() error {
	if err := e.enc.FlushBlock(); err != nil {
		return err
	}
	if err := e.bw.Flush(); err != nil {
		return err
	}
	if e.fl != nil {
		e.fl.Flush()
	}
	return nil
}

func (e *binaryEncoder) bytesOut() int64 { return e.cw.n + int64(e.bw.Buffered()) }
