package wire

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"slices"

	"repro/internal/database"
)

// Frame is one decoded frame. Kind selects which fields are meaningful:
// header frames carry Arity, block frames carry Tuples, marker frames
// carry Marker, trailer frames carry Trailer. The decoder reuses the Frame
// and the buffers its Tuples view: both are valid until the next Next
// call, so a caller that keeps a tuple clones it.
type Frame struct {
	Kind   Kind
	Arity  int
	Tuples []database.Tuple
	// Marker is a marker frame's payload, opaque to the codec: subscription
	// streams read it as version<<1|resync.
	Marker  uint64
	Trailer *Trailer
}

// Decoder reads a binary answer stream. Next returns frames in order,
// enforcing the format's structural rules: the first frame must be the
// header, exactly one header per stream, block widths must match the
// declared arity. A clean end-of-stream between frames is io.EOF; a
// truncated frame is io.ErrUnexpectedEOF; anything structurally wrong
// wraps ErrFormat. Decoders are not safe for concurrent use.
type Decoder struct {
	r          io.Reader
	arity      int
	headerSeen bool
	trailer    bool
	hdr        [frameHeaderLen]byte
	payload    []byte
	flat       []database.Value // a block's values, reused across frames
	tuples     []database.Tuple // views into flat, reused across frames
	frame      Frame            // what Next returns, reused across frames
	err        error
}

// NewDecoder returns a decoder reading from r. r should be buffered by the
// caller if reads are expensive; the decoder issues two reads per frame.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r}
}

// Next decodes and returns the next frame. After the trailer frame it
// returns io.EOF; it also returns io.EOF at a clean underlying EOF before
// the trailer, so callers distinguish complete from truncated streams by
// whether a trailer frame was seen.
func (d *Decoder) Next() (*Frame, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.trailer {
		return nil, d.latch(io.EOF)
	}
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err != io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, d.latch(err)
	}
	kind, length, err := frameHeader(d.hdr[:])
	if err != nil {
		return nil, d.latch(err)
	}
	d.payload = slices.Grow(d.payload[:0], length)
	p := d.payload[:length]
	if _, err := io.ReadFull(d.r, p); err != nil {
		return nil, d.latch(io.ErrUnexpectedEOF)
	}
	if err := checkPayload(d.hdr[:], p); err != nil {
		return nil, d.latch(err)
	}
	if kind != KindHeader && !d.headerSeen {
		return nil, d.fail("frame kind %d before header", kind)
	}
	switch kind {
	case KindHeader:
		return d.decodeHeader(p)
	case KindBlock:
		return d.decodeBlock(p)
	case KindMarker:
		return d.decodeMarker(p)
	case KindTrailer:
		return d.decodeTrailer(p)
	default:
		return nil, d.fail("unknown frame kind %d", kind)
	}
}

// emit stores f as the decoder's one Frame and returns it.
func (d *Decoder) emit(f Frame) *Frame {
	d.frame = f
	return &d.frame
}

// latch records err as the decoder's terminal state and returns it.
func (d *Decoder) latch(err error) error {
	d.err = err
	return err
}

func (d *Decoder) fail(format string, args ...any) error {
	return d.latch(formatError(format, args...))
}

func (d *Decoder) decodeHeader(p []byte) (*Frame, error) {
	if d.headerSeen {
		return nil, d.fail("duplicate header frame")
	}
	if len(p) < 3 {
		return nil, d.fail("header payload too short")
	}
	if p[0] != headerVersion {
		return nil, d.fail("unsupported format version %d", p[0])
	}
	arity := int(binary.LittleEndian.Uint16(p[1:]))
	if arity > MaxArity {
		return nil, d.fail("arity %d out of range", arity)
	}
	p = p[3:]
	if len(p) < arity+4 {
		return nil, d.fail("header payload too short for %d codecs", arity)
	}
	for i := 0; i < arity; i++ {
		if p[i] != codecDeltaVarint {
			return nil, d.fail("unknown column codec %d", p[i])
		}
	}
	p = p[arity:]
	if metaLen := binary.LittleEndian.Uint32(p); metaLen != 0 {
		return nil, d.fail("header meta length %d, want 0", metaLen)
	}
	if len(p) != 4 {
		return nil, d.fail("%d trailing bytes in header payload", len(p)-4)
	}
	d.headerSeen = true
	d.arity = arity
	return d.emit(Frame{Kind: KindHeader, Arity: arity}), nil
}

func (d *Decoder) decodeBlock(p []byte) (*Frame, error) {
	flat, rows, err := DecodeBlock(d.flat, p, d.arity)
	d.flat = flat
	if err != nil {
		return nil, d.latch(err)
	}
	tuples := slices.Grow(d.tuples[:0], rows)[:rows]
	for r := range tuples {
		tuples[r] = database.Tuple(flat[r*d.arity : (r+1)*d.arity : (r+1)*d.arity])
	}
	d.tuples = tuples
	return d.emit(Frame{Kind: KindBlock, Arity: d.arity, Tuples: tuples}), nil
}

func (d *Decoder) decodeMarker(p []byte) (*Frame, error) {
	u, n := binary.Uvarint(p)
	if n <= 0 || n != len(p) {
		return nil, d.fail("bad marker payload")
	}
	return d.emit(Frame{Kind: KindMarker, Arity: d.arity, Marker: u}), nil
}

func (d *Decoder) decodeTrailer(p []byte) (*Frame, error) {
	var tr Trailer
	if err := json.Unmarshal(p, &tr); err != nil {
		return nil, d.fail("bad trailer JSON: %v", err)
	}
	d.trailer = true
	return d.emit(Frame{Kind: KindTrailer, Arity: d.arity, Trailer: &tr}), nil
}

// SawTrailer reports whether the stream ended with a trailer frame — the
// binary protocol's completeness signal, mirroring the NDJSON trailer
// object.
func (d *Decoder) SawTrailer() bool { return d.trailer }
