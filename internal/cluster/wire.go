// Package cluster implements the distributed scatter-gather layer behind
// ucq-serve's coordinator mode: a static worker topology, replicated
// dataset placement through each worker's catalog, and a root-range
// scatter protocol that merges the workers' answer streams dedup-free. The
// coordinator⇄worker hop speaks only internal/wire's binary frames: the
// ScatterHeader rides as the header frame's metadata, root progress as
// marker frames, and the stream ends with the shared wire.Trailer.
//
// The scatter unit is a contiguous range of root-row indices (see
// ucq.Plan.RootLen): when a plan's answer set is root-range partitionable,
// ranges over [0, RootLen) split it into pairwise disjoint streams, so the
// coordinator concatenates worker streams without any cross-node
// deduplication — the distributed form of the head-variable disjointness
// that lets the in-process union merge skip dedup. Workers stream their
// range in ascending root order and interleave progress markers
// ("all answers with root row < p have been emitted"), which gives the
// coordinator exact resume points: a failed or cancelled call is re-issued
// from its last marker with zero duplicated and zero lost answers, and a
// straggler's remaining range can be split off to an idle peer, mirroring
// internal/exec's steal/split at the network layer.
package cluster

import (
	"encoding/json"
	"fmt"
)

// ScatterRequest is the coordinator→worker range-scoped query request: the
// body of POST /datasets/{name}/scatter. It is the codec FuzzScatterRequest
// exercises — workers must reject malformed requests with an error, never
// a panic, and valid requests must survive an encode/decode round trip.
type ScatterRequest struct {
	// Query is the UCQ source, same concrete syntax as /query.
	Query string `json:"query"`
	// Mode is "auto" (default) or "naive". Scatter requires a certified
	// root-range-partitionable plan, so "naive" can only ever probe.
	Mode string `json:"mode,omitempty"`
	// RootLo and RootHi scope the enumeration to root rows [RootLo, RootHi).
	// RootHi = -1 means the plan's full root length.
	RootLo int `json:"root_lo"`
	RootHi int `json:"root_hi"`
	// MarkerEvery asks the worker to emit a progress marker roughly every
	// this many answers (at the next root-row boundary). 0 selects the
	// worker's default.
	MarkerEvery int `json:"marker_every,omitempty"`
	// Version is the dataset version this call expects on the worker; the
	// worker answers 409 on mismatch, so a scatter never silently mixes
	// answers from different snapshots across workers. 0 accepts any.
	Version uint64 `json:"version,omitempty"`
	// Probe asks for the header frame only: no enumeration, no trailer. The
	// coordinator probes once per query to learn RootLen and whether the
	// plan is scatterable at all.
	Probe bool `json:"probe,omitempty"`
}

// Validate checks the request's invariants; workers call it before
// planning anything.
func (r *ScatterRequest) Validate() error {
	if r.Query == "" {
		return fmt.Errorf("cluster: scatter request has no query")
	}
	if r.Mode != "" && r.Mode != "auto" && r.Mode != "naive" {
		return fmt.Errorf("cluster: scatter mode must be \"auto\" or \"naive\", got %q", r.Mode)
	}
	if r.RootLo < 0 {
		return fmt.Errorf("cluster: root_lo must be ≥ 0, got %d", r.RootLo)
	}
	if r.RootHi < -1 {
		return fmt.Errorf("cluster: root_hi must be ≥ 0 (or -1 for the full root length), got %d", r.RootHi)
	}
	if r.RootHi != -1 && r.RootHi < r.RootLo {
		return fmt.Errorf("cluster: empty-inverted range [%d, %d)", r.RootLo, r.RootHi)
	}
	if r.MarkerEvery < 0 {
		return fmt.Errorf("cluster: marker_every must be ≥ 0, got %d", r.MarkerEvery)
	}
	return nil
}

// DecodeScatterRequest decodes and validates a scatter request body.
func DecodeScatterRequest(data []byte) (*ScatterRequest, error) {
	var req ScatterRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("cluster: decoding scatter request: %v", err)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Encode renders the request as its wire body.
func (r *ScatterRequest) Encode() []byte {
	out, err := json.Marshal(r)
	if err != nil {
		// All fields are plain data; Marshal cannot fail.
		panic(fmt.Sprintf("cluster: encoding scatter request: %v", err))
	}
	return out
}

// ScatterHeader is the metadata of a scatter response's header frame — on
// a probe, the whole response. It reports whether the plan is root-range
// partitionable and, if so, the root domain size the coordinator fans out
// over. Workers bound against identical replicas of a dataset agree on
// RootLen (plan preparation is deterministic); the coordinator checks this
// on every call and fails the query on divergence rather than merging
// streams from inconsistent replicas.
//
// A scatter stream's marker frames carry root_done: every answer with root
// row < root_done has been emitted before the marker. Markers only appear
// at root-row boundaries, which is what makes resuming at [root_done, hi)
// exact; the trailer's RootDone is the call's effective RootHi, an implicit
// final marker covering the tail of the range.
type ScatterHeader struct {
	Header      bool `json:"header"`
	Scatterable bool `json:"scatterable"`
	RootLen     int  `json:"root_len"`
	// Arity is the answer tuple width, repeated from the frame header so the
	// two can be cross-checked.
	Arity          int    `json:"arity"`
	Mode           string `json:"mode"`
	Cache          string `json:"cache"`
	Bind           string `json:"bind"`
	Dataset        string `json:"dataset"`
	DatasetVersion uint64 `json:"dataset_version"`
}
