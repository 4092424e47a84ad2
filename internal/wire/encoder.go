package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/database"
)

// Encoder writes a binary answer stream to w. The header frame is written
// lazily before the first payload frame; AppendBatch buffers a flat batch
// of answers and FlushBlock turns the buffer into one block frame. Callers
// flush at the same cadence as the NDJSON path (flushEvery boundaries); the
// encoder itself only forces a block at BlockRows(arity). Encoders are not
// safe for concurrent use.
type Encoder struct {
	w     io.Writer
	arity int

	headerDone bool
	vals       []database.Value // buffered answers, row-major
	rows       int
	frame      []byte
	payload    []byte
	err        error
}

// NewEncoder returns an encoder for tuples of the given arity.
func NewEncoder(w io.Writer, arity int) (*Encoder, error) {
	if arity < 0 || arity > MaxArity {
		return nil, fmt.Errorf("wire: arity %d out of range", arity)
	}
	return &Encoder{w: w, arity: arity}, nil
}

// writeHeader emits the header frame once. Its metadata length is always
// zero; the field stays so the header keeps its byte layout.
func (e *Encoder) writeHeader() error {
	if e.headerDone {
		return nil
	}
	p := e.payload[:0]
	p = append(p, headerVersion)
	p = binary.LittleEndian.AppendUint16(p, uint16(e.arity))
	for i := 0; i < e.arity; i++ {
		p = append(p, codecDeltaVarint)
	}
	p = binary.LittleEndian.AppendUint32(p, 0)
	e.payload = p
	e.headerDone = true
	return e.writeFrame(KindHeader, p)
}

// writeFrame frames and writes one payload, latching the first error.
func (e *Encoder) writeFrame(kind Kind, payload []byte) error {
	e.frame = AppendFrame(e.frame[:0], kind, payload)
	if _, err := e.w.Write(e.frame); err != nil {
		e.err = err
		return err
	}
	return nil
}

// AppendBatch buffers n answers given as flat values, one answer's arity
// values after another; vals may run longer than n answers. The values are
// copied, so callers may reuse the slice.
func (e *Encoder) AppendBatch(vals []database.Value, n int) error {
	if e.err != nil {
		return e.err
	}
	if n < 0 || len(vals) < n*e.arity {
		return fmt.Errorf("wire: %d values for %d answers of arity %d", len(vals), n, e.arity)
	}
	for limit := BlockRows(e.arity); n > 0; {
		k := min(n, limit-e.rows)
		e.vals = append(e.vals, vals[:k*e.arity]...)
		e.rows += k
		vals, n = vals[k*e.arity:], n-k
		if e.rows == limit {
			if err := e.FlushBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

// FlushBlock writes the buffered tuples as one block frame; it is a no-op
// with nothing buffered.
func (e *Encoder) FlushBlock() error {
	if e.err != nil {
		return e.err
	}
	if e.rows == 0 {
		return nil
	}
	if err := e.writeHeader(); err != nil {
		return err
	}
	e.payload = AppendBlock(e.payload[:0], e.vals, e.arity, e.rows)
	e.vals, e.rows = e.vals[:0], 0
	return e.writeFrame(KindBlock, e.payload)
}

// Marker flushes any buffered block and writes a marker frame carrying v
// (see Frame.Marker).
func (e *Encoder) Marker(v uint64) error {
	if err := e.FlushBlock(); err != nil {
		return err
	}
	if err := e.writeHeader(); err != nil {
		return err
	}
	p := binary.AppendUvarint(e.payload[:0], v)
	e.payload = p
	return e.writeFrame(KindMarker, p)
}

// Trailer flushes any buffered block and ends the stream with a trailer
// frame. The encoder is still usable only for error returns afterwards;
// callers write exactly one trailer.
func (e *Encoder) Trailer(tr Trailer) error {
	if err := e.FlushBlock(); err != nil {
		return err
	}
	if err := e.writeHeader(); err != nil {
		return err
	}
	b, err := json.Marshal(tr)
	if err != nil {
		return fmt.Errorf("wire: marshal trailer: %w", err)
	}
	return e.writeFrame(KindTrailer, b)
}
