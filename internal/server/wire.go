package server

import (
	ucq "repro"
	"repro/internal/wire"
)

// QueryRequest is the POST /query body: a UCQ in the datalog-style
// concrete syntax, the instance as relation-name → integer rows, optional
// engine options and an optional answer limit. Its JSON tags are the wire
// format for clients that encode it; the server decodes request bodies
// with its strict decoder (decode.go), which reads exactly what
// encoding/json would read into these types and packs Relations' rows
// straight into value columns instead.
type QueryRequest struct {
	// Query is the UCQ source, e.g.
	// "Q1(x,y) <- R(x,z), S(z,y).\nQ2(x,y) <- R(x,y), S(y,y)."
	Query string `json:"query"`
	// Relations maps relation names to rows of integers; the arity of a
	// relation is fixed by its first row.
	Relations map[string][][]int64 `json:"relations"`
	// Options selects the evaluation engine.
	Options QueryOptions `json:"options"`
	// Limit stops the stream after this many answers (0 = all).
	Limit int `json:"limit,omitempty"`
}

// QueryOptions mirrors the engine-facing subset of ucq.PlanOptions on the
// wire.
type QueryOptions struct {
	// Mode is "auto" (certify, fall back to naive; the default) or
	// "naive" (skip certification).
	Mode string `json:"mode,omitempty"`
	// CountOnly answers with a single CountResponse object instead of
	// streaming: certified plans whose members probe no earlier member
	// count from the Theorem 12 counting passes without enumerating;
	// everything else enumerates and counts server-side.
	CountOnly bool `json:"count_only,omitempty"`
}

// Trailer is the terminal record of every answer stream — the last NDJSON
// line, or the binary trailer frame. One definition serves the server and
// the client decoders; see wire.Trailer for the fields.
type Trailer = wire.Trailer

// CountResponse is the body of a count-only evaluation (the options'
// count_only flag). No answers are streamed; the count is exact, capped at
// the request's limit when it has one.
type CountResponse struct {
	Count int64  `json:"count"`
	Mode  string `json:"mode"`
	// Method is "count-answers" when the count came from the Theorem 12
	// counting passes without enumeration (Plan.CountExact), "enumerate"
	// when per-answer deduplication forced an enumeration.
	Method string `json:"method"`
	Cache  string `json:"cache"`
	// Dataset fields mirror the Trailer's (dataset endpoints only).
	Dataset        string `json:"dataset,omitempty"`
	DatasetVersion uint64 `json:"dataset_version,omitempty"`
	Bind           string `json:"bind,omitempty"`
}

// SubscribeRequest is the POST /datasets/{name}/subscribe body.
type SubscribeRequest struct {
	// Query is the UCQ source, as in QueryRequest.
	Query string `json:"query"`
	// Options selects the evaluation engine; count_only is rejected.
	Options QueryOptions `json:"options"`
	// FromVersion resumes a subscription that already holds the complete
	// answer set through that dataset version (it was reading a stream that
	// died after a {"version":N} marker): the initial batch is then the
	// delta since FromVersion instead of the full answer set, when the
	// append log still covers it. 0 subscribes from scratch.
	FromVersion uint64 `json:"from_version,omitempty"`
}

// SubscriptionMarker is the control record punctuating a /subscribe
// stream — a {"version":…} object on NDJSON, a marker frame on binary:
// every answer batch ends with one, declaring the dataset version the
// client is now complete through (see ucq.SubscriptionEvent for resync).
type SubscriptionMarker = ucq.SubscriptionEvent

// DatasetRequest is the PUT /datasets/{name} body: the relations in the
// same rows wire format as QueryRequest.Relations.
type DatasetRequest struct {
	// Relations maps relation names to rows of integers; the arity of a
	// relation is fixed by its first row.
	Relations map[string][][]int64 `json:"relations"`
	// Append adds the rows to the existing dataset (a new snapshot, version
	// bump) instead of replacing its contents. The target must exist.
	Append bool `json:"append,omitempty"`
}

// DatasetInfo is one dataset's listing entry: the PUT response body and
// the elements of GET /datasets.
type DatasetInfo = ucq.DatasetInfo

// DatasetListResponse is the GET /datasets body.
type DatasetListResponse struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// ErrorResponse is the JSON body of a non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
}
