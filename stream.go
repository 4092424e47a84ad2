package ucq

// Client-side decoding of the server's answer streams. A streaming
// response (POST /query, POST /datasets/{name}/query, /subscribe) carries
// answers in one of two encodings, negotiated via the Accept header: NDJSON
// text lines, or the compact binary columnar frames of internal/wire.
// DecodeAnswerStream and DecodeSubscriptionStream hide the difference —
// pick the encoding off the response Content-Type and get tuples, markers
// and the trailer either way.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/wire"
)

// Media types of the two answer-stream encodings, for request Accept
// headers and response Content-Type dispatch.
const (
	// MediaTypeNDJSON is the text encoding: one JSON array line per answer,
	// control records as JSON object lines. The default.
	MediaTypeNDJSON = wire.MediaTypeNDJSON
	// MediaTypeBinary is the columnar binary frame encoding. Servers only
	// send it to clients whose Accept names it explicitly.
	MediaTypeBinary = wire.MediaTypeBinary
)

// StreamTrailer is the terminal record of an answer stream, whichever
// encoding carried it: the NDJSON trailer object, or the binary trailer
// frame. A stream that ends without one was truncated. Done is false and
// Error set when the enumeration died after answers already left the
// server: the answers seen are an arbitrary prefix.
type StreamTrailer = wire.Trailer

// DecodeAnswerStream reads one streaming query response from r, calling
// yield for every answer tuple in stream order, and returns the stream's
// trailer. contentType selects the decoder (a full Content-Type header
// value is fine; parameters are ignored) — anything but MediaTypeBinary
// decodes as NDJSON. The tuple handed to yield is valid only until yield
// returns — both decoders reuse their buffers (a binary stream decodes
// every block into one buffer, an NDJSON stream every line into one
// tuple) and allocate nothing per answer — so a caller that keeps it
// clones it. Every answer has the width of the first: the binary header
// declares it, and an NDJSON answer line of another width is an error. If
// yield returns false the stream is abandoned mid-read and
// DecodeAnswerStream returns (nil, nil): the caller stopped, nothing
// failed. A stream that ends without a trailer, or whose bytes don't
// parse, returns an error.
func DecodeAnswerStream(r io.Reader, contentType string, yield func(Tuple) bool) (*StreamTrailer, error) {
	tr, eof, err := decodeStream(r, contentType, yield, nil)
	if eof {
		return nil, fmt.Errorf("ucq: answer stream ended without a trailer")
	}
	return tr, err
}

// SubscriptionEvent is a control record of a /subscribe stream: a version
// marker. The answers before it make the subscriber's set complete through
// Version. Resync means the server could not maintain the subscriber
// incrementally — discard every answer collected so far; the full set at
// Version follows, ended by a plain (non-resync) marker.
type SubscriptionEvent struct {
	Version Version `json:"version"`
	Resync  bool    `json:"resync,omitempty"`
}

// DecodeSubscriptionStream reads a GET/POST /datasets/{name}/subscribe
// response from r, calling yield for every answer and event for every
// version marker, in stream order. contentType dispatches the decoder, and
// yield's tuple is valid only during the call, as for DecodeAnswerStream.
// Subscription streams are normally endless: a nil trailer with a nil
// error means the stream ended (the connection closed or a callback
// returned false) without the server reporting a failure; a non-nil
// trailer means the server terminated the subscription and says why (e.g.
// the dataset was dropped).
func DecodeSubscriptionStream(r io.Reader, contentType string, yield func(Tuple) bool, event func(SubscriptionEvent) bool) (*StreamTrailer, error) {
	tr, _, err := decodeStream(r, contentType, yield, event)
	return tr, err
}

// decodeStream walks one answer stream in the encoding contentType names:
// tuples go to yield, markers to event (nil skips them), and the trailer
// ends the walk. It returns (nil, false, nil) when a callback stopped the
// walk, and eof = true when the stream ended cleanly before any trailer.
func decodeStream(r io.Reader, contentType string, yield func(Tuple) bool, event func(SubscriptionEvent) bool) (tr *StreamTrailer, eof bool, err error) {
	if wire.IsBinary(contentType) {
		return decodeBinary(r, yield, event)
	}
	return decodeNDJSON(r, yield, event)
}

func decodeBinary(r io.Reader, yield func(Tuple) bool, event func(SubscriptionEvent) bool) (*StreamTrailer, bool, error) {
	dec := wire.NewDecoder(bufio.NewReaderSize(r, 64<<10))
	for {
		fr, err := dec.Next()
		if err == io.EOF {
			return nil, true, nil
		}
		if err != nil {
			return nil, false, fmt.Errorf("ucq: reading answer stream: %v", err)
		}
		switch fr.Kind {
		case wire.KindBlock:
			for _, t := range fr.Tuples {
				if !yield(t) {
					return nil, false, nil
				}
			}
		case wire.KindMarker:
			// On a subscription stream the marker payload bit-packs the
			// version with the resync flag in the low bit.
			if event != nil && !event(SubscriptionEvent{Version: fr.Marker >> 1, Resync: fr.Marker&1 == 1}) {
				return nil, false, nil
			}
		case wire.KindTrailer:
			return fr.Trailer, false, nil
		}
	}
}

func decodeNDJSON(r io.Reader, yield func(Tuple) bool, event func(SubscriptionEvent) bool) (*StreamTrailer, bool, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var t Tuple // every answer line parses into it
	width := -1 // fixed by the first answer line
	for scanner.Scan() {
		raw := scanner.Bytes()
		if len(raw) == 0 {
			continue
		}
		if raw[0] == '[' {
			var err error
			if t, err = wire.ParseTupleNDJSON(t, raw); err != nil {
				return nil, false, fmt.Errorf("ucq: malformed answer line %q: %v", raw, err)
			}
			if width < 0 {
				width = len(t)
			} else if len(t) != width {
				return nil, false, fmt.Errorf("ucq: answer line %q has %d values, earlier answers %d", raw, len(t), width)
			}
			if !yield(t) {
				return nil, false, nil
			}
			continue
		}
		// Control objects: anything completed or failed is the trailer;
		// version markers carry "version" (and never "done"/"error").
		var rec struct {
			StreamTrailer
			Version *uint64 `json:"version"`
			Resync  bool    `json:"resync"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, false, fmt.Errorf("ucq: malformed stream record %q: %v", raw, err)
		}
		if rec.Done || rec.Error != "" {
			return &rec.StreamTrailer, false, nil
		}
		if rec.Version != nil && event != nil && !event(SubscriptionEvent{Version: *rec.Version, Resync: rec.Resync}) {
			return nil, false, nil
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, false, fmt.Errorf("ucq: reading answer stream: %v", err)
	}
	return nil, true, nil
}
