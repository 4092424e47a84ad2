// Package wire owns the answer-stream grammar — header, tuples, markers,
// trailer — and its compact binary encoding: a columnar frame format that
// client streams negotiate per request via the Accept header. The NDJSON
// text encoding carries the same records (AppendTupleNDJSON lines, the
// Trailer as a JSON object).
//
// A stream is a sequence of frames, each length-prefixed and checksummed:
//
//	magic   u32  frameMagic ("UCQF")
//	kind    u8   header | block | marker | trailer
//	length  u32  payload bytes (≤ MaxFramePayload)
//	crc     u32  CRC-32 (IEEE) of the payload
//	payload length bytes
//
// All fixed-width integers are little-endian. The first frame is always a
// header (arity, per-column codec, and a metadata length that is always
// zero — a decoder rejects any other value); answers
// travel in block frames holding up to BlockRows(arity) tuples transposed
// into columns, each column a run of zigzag-varint deltas of the raw 64-bit
// value words — root-ordered enumeration makes the leading column nearly
// sorted, so deltas stay in the one-byte varint range. Marker frames carry
// one uvarint whose meaning belongs to the stream type (a subscription's
// version<<1|resync), and an
// explicit trailer frame ends the stream with the same Trailer the NDJSON
// protocol sends as its last line. A decoder can therefore distinguish
// "complete" from "truncated" exactly as on the text protocol: no trailer
// frame, no complete stream.
//
// The frame (AppendFrame, SplitFrame) and the block payload (AppendBlock,
// DecodeBlock) are also the storage layer's durable record format, so
// both enforce one set of limits.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"

	"repro/internal/database"
)

// Media types the server negotiates between. NDJSON is the default and the
// fallback for any Accept header that doesn't name the binary encoding.
const (
	// MediaTypeNDJSON is the text answer stream: one JSON array per
	// answer, one JSON object trailer.
	MediaTypeNDJSON = "application/x-ndjson"
	// MediaTypeBinary is this package's columnar frame stream.
	MediaTypeBinary = "application/x-ucq-bin"
)

// IsBinary reports whether a Content-Type header value (parameters are
// ignored) names the binary frame encoding; everything else is NDJSON to a
// client.
func IsBinary(contentType string) bool {
	media, _, _ := strings.Cut(contentType, ";")
	return strings.TrimSpace(media) == MediaTypeBinary
}

// Kind is a frame type tag.
type Kind uint8

// Frame kinds.
const (
	KindHeader  Kind = 1
	KindBlock   Kind = 2
	KindMarker  Kind = 3
	KindTrailer Kind = 4
)

const (
	frameMagic     = 0x55435146 // "UCQF" little-endian
	frameHeaderLen = 13
	// MaxFramePayload bounds one frame's payload; a larger length field is
	// corruption, not a request for a 4 GiB allocation.
	MaxFramePayload = 1 << 26
	// MaxBlockRows caps the tuples per block frame and maxBlockValues its
	// values (tuples × arity); BlockRows combines the two. Encoders flush
	// earlier at the server's flush boundaries; this is the backstop that
	// keeps every block payload under about 10 B × maxBlockValues.
	MaxBlockRows   = 1 << 16
	maxBlockValues = 1 << 16
	// MaxArity bounds a tuple's width: a header's declared arity, a
	// journaled relation's, and so every relation a catalog accepts.
	MaxArity = 1 << 12
	// codecDeltaVarint is the only column codec today: zigzag varints of
	// per-column deltas of the raw value words. The header carries one
	// codec byte per column so the format can grow dictionary or
	// run-length columns without a frame-level version bump.
	codecDeltaVarint = 0
	// headerVersion is the format version in the header frame. Version 2
	// carries plain int64 words; version 1's packed a tag over a 56-bit
	// payload, so a version-1 stream is refused rather than misread.
	headerVersion = 2
)

// ErrFormat reports a structurally invalid frame or payload. Streams are
// either read to a trailer frame or failed with it — there is no partial
// recovery inside a corrupt stream.
var ErrFormat = errors.New("wire: malformed frame")

// Trailer is the terminal record of every answer stream, whichever
// encoding carried it: the final JSON object line of an NDJSON stream — the
// only line that is an object rather than an array — and the CRC-protected
// JSON payload of a binary trailer frame. A stream that ends without one
// was truncated.
type Trailer struct {
	Done  bool   `json:"done"`
	Count int    `json:"count"`
	Mode  string `json:"mode"`
	Cache string `json:"cache"`
	// Dataset and DatasetVersion identify the snapshot a dataset query ran
	// on, and Bind is "hit" when its per-instance preprocessing came from
	// the bind cache, "miss" when this request computed it. All three stay
	// zero on inline /query streams.
	Dataset        string `json:"dataset,omitempty"`
	DatasetVersion uint64 `json:"dataset_version,omitempty"`
	Bind           string `json:"bind,omitempty"`
	// Error is set (with Done false) when the stream failed after answers
	// already left the server: the answers above the trailer are an
	// arbitrary prefix, and Count only counts what was sent.
	Error string `json:"error,omitempty"`
}

// checksum is the frame payload checksum, CRC-32 (IEEE).
func checksum(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// formatError wraps a structural complaint in ErrFormat.
func formatError(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

// AppendFrame appends payload, framed as kind, to dst. Callers keep the
// payload within MaxFramePayload; SplitFrame and Decoder reject longer
// frames.
func AppendFrame(dst []byte, kind Kind, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	hdr[4] = byte(kind)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[9:], checksum(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// SplitFrame slices the first frame off buf and returns its kind, its
// payload and the bytes after it. It returns io.EOF on an empty buf,
// io.ErrUnexpectedEOF when buf ends inside the frame, and an
// ErrFormat-wrapped error for a bad magic, length or checksum.
func SplitFrame(buf []byte) (kind Kind, payload, rest []byte, err error) {
	if len(buf) == 0 {
		return 0, nil, nil, io.EOF
	}
	if len(buf) < frameHeaderLen {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	kind, n, err := frameHeader(buf)
	if err != nil {
		return 0, nil, nil, err
	}
	if n > len(buf)-frameHeaderLen {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	payload = buf[frameHeaderLen : frameHeaderLen+n]
	if err := checkPayload(buf, payload); err != nil {
		return 0, nil, nil, err
	}
	return kind, payload, buf[frameHeaderLen+n:], nil
}

// frameHeader validates a frame header's magic and length and returns the
// frame's kind and payload length.
func frameHeader(hdr []byte) (Kind, int, error) {
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != frameMagic {
		return 0, 0, formatError("bad magic 0x%08x", got)
	}
	n := binary.LittleEndian.Uint32(hdr[5:])
	if n > MaxFramePayload {
		return 0, 0, formatError("frame payload %d exceeds limit", n)
	}
	return Kind(hdr[4]), int(n), nil
}

// checkPayload checks payload against the checksum in its frame header.
func checkPayload(hdr, payload []byte) error {
	if got, want := checksum(payload), binary.LittleEndian.Uint32(hdr[9:]); got != want {
		return formatError("payload checksum 0x%08x, want 0x%08x", got, want)
	}
	return nil
}

// BlockRows is the most tuples one block frame of the given arity holds.
func BlockRows(arity int) int {
	return min(MaxBlockRows, maxBlockValues/max(arity, 1))
}

// AppendBlock appends the block payload for the first n tuples of vals —
// row-major, arity values each — to dst: the tuple count, then each column
// as zigzag-varint deltas of the raw value words, read with stride arity.
// Deltas start from zero in every block, so any block decodes without its
// predecessors. n must lie in [1, BlockRows(arity)].
func AppendBlock(dst []byte, vals []database.Value, arity, n int) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	for c := 0; c < arity; c++ {
		prev := int64(0)
		for i := c; i < n*arity; i += arity {
			v := int64(vals[i])
			dst = binary.AppendUvarint(dst, zigzag(v-prev))
			prev = v
		}
	}
	return dst
}

// DecodeBlock decodes a block payload of the given arity into dst[:0],
// row-major, and returns the values and the tuple count. It rejects a
// count outside [1, BlockRows(arity)], a short column and trailing bytes.
func DecodeBlock(dst []database.Value, p []byte, arity int) ([]database.Value, int, error) {
	rows64, n := binary.Uvarint(p)
	if n <= 0 {
		return dst, 0, formatError("bad block row count")
	}
	p = p[n:]
	if rows64 == 0 || rows64 > uint64(BlockRows(arity)) {
		return dst, 0, formatError("block row count %d out of range", rows64)
	}
	rows := int(rows64)
	flat := slices.Grow(dst[:0], rows*arity)[:rows*arity]
	for c := 0; c < arity; c++ {
		prev := int64(0)
		for i := c; i < len(flat); i += arity {
			u, n := binary.Uvarint(p)
			if n <= 0 {
				return flat, 0, formatError("truncated column %d at row %d", c, i/arity)
			}
			p = p[n:]
			prev += unzigzag(u)
			flat[i] = database.Value(prev)
		}
	}
	if len(p) != 0 {
		return flat, 0, formatError("%d trailing bytes in block payload", len(p))
	}
	return flat, rows, nil
}

// zigzag maps a signed delta onto the unsigned varint space.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendTupleNDJSON appends the tuple rendered as a JSON array of
// integers to dst and returns the extended slice — the per-answer codec of
// the NDJSON stream, allocation-free once dst has capacity.
// ParseTupleNDJSON is its exact inverse.
func AppendTupleNDJSON(dst []byte, t database.Tuple) []byte {
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendInt(dst, int64(v))
	}
	return append(dst, ']')
}

// appendInt is strconv.AppendInt(dst, v, 10) without the import knot.
func appendInt(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		return appendUint(dst, uint64(-v))
	}
	return appendUint(dst, uint64(v))
}

func appendUint(dst []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, tmp[i:]...)
}

// ParseTupleNDJSON parses one NDJSON answer line — a JSON array as emitted
// by AppendTupleNDJSON, with or without the trailing newline — into
// dst[:0] and returns the extended slice, so a caller that passes the
// previous result back in parses a whole stream without allocating. It
// accepts a small superset of the stream's own output grammar: int64
// integers, with JSON whitespace around the brackets, commas and values and
// with leading zeros; no strings, no nesting, no floats.
func ParseTupleNDJSON(dst database.Tuple, line []byte) (database.Tuple, error) {
	i, n := 0, len(line)
	skip := func() {
		for i < n && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r' || line[i] == '\n') {
			i++
		}
	}
	skip()
	if i >= n || line[i] != '[' {
		return nil, fmt.Errorf("wire: answer line is not a JSON array")
	}
	i++
	t := dst[:0]
	skip()
	if i < n && line[i] == ']' {
		i++
		skip()
		if i != n {
			return nil, fmt.Errorf("wire: trailing bytes after answer array")
		}
		return t, nil
	}
	for {
		skip()
		if i >= n {
			return nil, fmt.Errorf("wire: unterminated answer array")
		}
		v, err := parseInt(line, &i)
		if err != nil {
			return nil, err
		}
		t = append(t, database.Value(v))
		skip()
		if i >= n {
			return nil, fmt.Errorf("wire: unterminated answer array")
		}
		switch line[i] {
		case ',':
			i++
		case ']':
			i++
			skip()
			if i != n {
				return nil, fmt.Errorf("wire: trailing bytes after answer array")
			}
			return t, nil
		default:
			return nil, fmt.Errorf("wire: unexpected byte %q in answer array", line[i])
		}
	}
}

// parseInt parses a decimal integer (with optional leading '-') in
// int64's range starting at line[*i], advancing *i past it.
func parseInt(line []byte, i *int) (int64, error) {
	n := len(line)
	neg := false
	if *i < n && line[*i] == '-' {
		neg = true
		*i++
	}
	start := *i
	var v uint64
	for *i < n && line[*i] >= '0' && line[*i] <= '9' {
		d := uint64(line[*i] - '0')
		if v > (1<<63-1)/10 {
			return 0, fmt.Errorf("wire: integer overflow in answer value")
		}
		v = v*10 + d
		*i++
	}
	if *i == start {
		return 0, fmt.Errorf("wire: expected integer in answer value")
	}
	if neg {
		if v > 1<<63 {
			return 0, fmt.Errorf("wire: integer overflow in answer value")
		}
		return -int64(v), nil
	}
	if v > 1<<63-1 {
		return 0, fmt.Errorf("wire: integer overflow in answer value")
	}
	return int64(v), nil
}
