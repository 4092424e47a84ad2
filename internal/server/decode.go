package server

import (
	"bytes"
	"errors"
	"net/http"

	"repro/internal/wire"
)

// Request bodies are decoded by one strict decoder (wire.Body): a single
// pass over the body's bytes, with no reflection, that accepts exactly
// what encoding/json would decode into the request types below with
// unknown fields disallowed, and packs an inline instance's rows straight
// into value columns (wire.Relations) instead of a map of row slices. The
// request types keep their JSON tags for clients that encode them.

// readBody reads the request body whole through http.MaxBytesReader, so
// nothing past maxBodyBytes is buffered; a body declared longer is refused
// unread. A body over the cap is a 413. On failure it writes the error
// response and returns ok = false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	var buf bytes.Buffer
	err := error(&http.MaxBytesError{Limit: maxBodyBytes})
	if r.ContentLength <= maxBodyBytes {
		// Size the buffer from the declared length, up to a bound: a header
		// alone must not make the server allocate up to the cap.
		if n := r.ContentLength; n > 0 && n < 1<<20 {
			buf.Grow(int(n) + bytes.MinRead)
		}
		_, err = buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		s.httpError(w, http.StatusRequestEntityTooLarge, "decoding request: body over the %d-byte limit", maxBodyBytes)
		return nil, false
	case err != nil:
		s.httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return nil, false
	}
	return buf.Bytes(), true
}

// decodeBody reads the request body and decodes it with decode, strictly:
// an unknown field — a misspelt or removed option, say — is a 400 naming
// it rather than a silently ignored knob, and so is anything but
// whitespace after the one JSON value. On failure it writes the error
// response and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, decode func(*wire.Body)) bool {
	body, ok := s.readBody(w, r)
	if !ok {
		return false
	}
	d := wire.NewBody(body)
	decode(d)
	switch err := d.End(); {
	case errors.Is(err, wire.ErrTrailing):
		s.httpError(w, http.StatusBadRequest, "decoding request: data after the JSON body")
		return false
	case err != nil:
		s.httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// decodeQueryRequest decodes a QueryRequest body into req, except that its
// relations go to rels.
func decodeQueryRequest(d *wire.Body, req *QueryRequest, rels *wire.Relations) {
	d.Object("server.QueryRequest", func(key []byte) bool {
		switch {
		case wire.KeyIs(key, "query"):
			d.String(&req.Query)
		case wire.KeyIs(key, "relations"):
			d.Relations(rels)
		case wire.KeyIs(key, "options"):
			decodeQueryOptions(d, &req.Options)
		case wire.KeyIs(key, "limit"):
			d.Int(&req.Limit)
		default:
			return false
		}
		return true
	})
}

// decodeQueryOptions decodes a QueryOptions object into o.
func decodeQueryOptions(d *wire.Body, o *QueryOptions) {
	d.Object("server.QueryOptions", func(key []byte) bool {
		switch {
		case wire.KeyIs(key, "mode"):
			d.String(&o.Mode)
		case wire.KeyIs(key, "count_only"):
			d.Bool(&o.CountOnly)
		default:
			return false
		}
		return true
	})
}

// decodeDatasetRequest decodes a DatasetRequest body into req, except that
// its relations go to rels.
func decodeDatasetRequest(d *wire.Body, req *DatasetRequest, rels *wire.Relations) {
	d.Object("server.DatasetRequest", func(key []byte) bool {
		switch {
		case wire.KeyIs(key, "relations"):
			d.Relations(rels)
		case wire.KeyIs(key, "append"):
			d.Bool(&req.Append)
		default:
			return false
		}
		return true
	})
}

// decodeSubscribeRequest decodes a SubscribeRequest body into req.
func decodeSubscribeRequest(d *wire.Body, req *SubscribeRequest) {
	d.Object("server.SubscribeRequest", func(key []byte) bool {
		switch {
		case wire.KeyIs(key, "query"):
			d.String(&req.Query)
		case wire.KeyIs(key, "options"):
			decodeQueryOptions(d, &req.Options)
		case wire.KeyIs(key, "from_version"):
			d.Uint(&req.FromVersion)
		default:
			return false
		}
		return true
	})
}
