package server

// Worker-side scatter endpoint: POST /datasets/{name}/scatter evaluates a
// UCQ over a contiguous root-row range of the dataset's current snapshot
// and streams the answers in ascending root order with interleaved
// progress markers. This is the coordinator's range-scoped query protocol
// (see internal/cluster): markers are exact resume points, the version
// guard keeps a scatter from mixing snapshots across workers, and probes
// answer the "is this plan scatterable, and how big is its root domain?"
// question without enumerating. The endpoint exists on every server —
// single-node deployments simply never call it.
//
// The hop is binary only, whatever the request's Accept says: the
// ScatterHeader rides as the header frame's metadata (a probe's whole
// response), root markers and the trailer as their own frame kinds.

import (
	"io"
	"net/http"

	ucq "repro"
	"repro/internal/cluster"
	"repro/internal/wire"
)

// handleDatasetScatter serves one range-scoped scatter call.
func (s *Server) handleDatasetScatter(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	name := r.PathValue("name")

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	req, err := cluster.DecodeScatterRequest(body)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Probes answer from the plan header without enumerating — they hold
	// no streaming resources, so they bypass admission (a coordinator must
	// be able to size up a query even while the worker is saturated).
	if !req.Probe {
		if !s.admitStream(w, r) {
			return
		}
		defer s.admission.release()
	}
	u, err := ucq.Parse(req.Query)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "parsing query: %v", err)
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "auto"
	}
	ds, ok := s.catalog.Dataset(name)
	if !ok {
		s.httpError(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	pq, hit, err := s.prepared(mode, u)
	if err != nil {
		s.planError(w, err)
		return
	}

	// Scatter binds are explicitly sequential: the executor-level
	// parallelism lives on the coordinator's fan-out, and one worker serves
	// one call per connection — local work-stealing underneath would only
	// fight the range contract. The bound state is shared with ordinary
	// dataset queries through the bind cache.
	exec := &ucq.PlanOptions{ForceNaive: mode == "naive"}
	plan, err := pq.BindDatasetExecContext(r.Context(), ds, exec)
	if err != nil {
		if r.Context().Err() != nil {
			s.stats.requestsCancelled.Add(1)
			return
		}
		s.planError(w, err)
		return
	}
	// The guard compares against the snapshot the plan actually bound — not
	// the catalog's current version — so a Replace racing this request still
	// yields an exact answer: either the bind caught the registered
	// snapshot, or the call 409s and the coordinator fails it over.
	if req.Version != 0 && plan.DatasetVersion() != req.Version {
		s.httpError(w, http.StatusConflict, "dataset %q is at version %d, caller expects %d",
			name, plan.DatasetVersion(), req.Version)
		return
	}
	s.stats.scatterRequests.Add(1)

	rootLen, scatterable := plan.RootLen()
	hdr := cluster.ScatterHeader{
		Header:         true,
		Scatterable:    scatterable,
		RootLen:        rootLen,
		Arity:          plan.Query.Arity(),
		Mode:           plan.Mode.String(),
		Cache:          cacheState(hit),
		Bind:           cacheState(plan.BindCacheHit()),
		Dataset:        plan.DatasetName(),
		DatasetVersion: plan.DatasetVersion(),
	}

	const media = wire.MediaTypeBinary
	enc, err := newBinaryEncoder(w, hdr.Arity)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", media)
	w.Header().Set("X-Ucq-Mode", plan.Mode.String())
	w.WriteHeader(http.StatusOK)
	// The coordinator reads the handshake (scatterable? which version?)
	// before any answers exist, so the header frame goes out now, not
	// lazily at the first block.
	_ = enc.enc.SetMeta(&hdr)
	_ = enc.enc.WriteHeader()
	_ = enc.flush()
	if req.Probe || !scatterable {
		// A probe never enumerates; a non-scatterable non-probe ends here
		// too — the coordinator reads scatterable=false off the header and
		// takes the single-worker fallback.
		return
	}

	lo, hi := req.RootLo, req.RootHi
	if hi == -1 || hi > rootLen {
		hi = rootLen
	}
	if lo > hi {
		lo = hi
	}
	ra, err := plan.AnswersRootRange(lo, hi)
	if err != nil {
		// RootLen said scatterable; reaching this is a bug.
		panic(err)
	}
	markerEvery := req.MarkerEvery
	if markerEvery <= 0 {
		markerEvery = cluster.DefaultMarkerEvery
	}

	count, sinceMarker := 0, 0
	prevPos := -1
	cancelled := false
	for {
		if r.Context().Err() != nil {
			cancelled = true
			break
		}
		t, ok := ra.Next()
		if !ok {
			break
		}
		pos := ra.RootPos()
		// A marker may only land on a root boundary: root_done = pos claims
		// every answer with root < pos is already out, which, with the
		// ascending root order, is exactly true when this answer is the
		// first of its root row.
		if count > 0 && pos > prevPos && sinceMarker >= markerEvery {
			if err := enc.enc.Marker(uint64(pos)); err != nil {
				cancelled = true
				break
			}
			if err := enc.flush(); err != nil {
				cancelled = true
				break
			}
			sinceMarker = 0
		}
		prevPos = pos
		if err := enc.appendTuple(t); err != nil {
			cancelled = true
			break
		}
		count++
		sinceMarker++
		if count == 1 || count%s.cfg.FlushEvery == 0 {
			if err := enc.flush(); err != nil {
				cancelled = true
				break
			}
		}
	}
	s.stats.answersStreamed.Add(int64(count))
	if cancelled || r.Context().Err() != nil {
		s.stats.requestsCancelled.Add(1)
		s.stats.recordWire(media, count, enc.bytesOut())
		return
	}
	s.stats.streamsCompleted.Add(1)
	_ = enc.trailer(Trailer{Done: true, Count: count, RootDone: hi})
	s.endStream(enc, media, count)
}
