package server

// Dataset endpoints: register an instance once, bind many queries against
// it. PUT /datasets/{name} installs (or replaces/appends, with a version
// bump) a named dataset in the server's catalog; POST
// /datasets/{name}/query evaluates a UCQ against the dataset's current
// snapshot, serving the per-instance half of planning — the Theorem 12
// preprocessing that used to run on every /query — from the catalog's
// bind cache keyed on (query fingerprint, dataset, version). The
// second identical query skips preprocessing entirely and goes straight
// to constant-delay enumeration; /stats exposes the hit/miss/eviction
// counters that prove it.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	ucq "repro"
	"repro/internal/wire"
)

// handleDatasetPut creates, replaces or appends to a named dataset.
func (s *Server) handleDatasetPut(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	name := r.PathValue("name")

	var (
		req  DatasetRequest
		rels wire.Relations
	)
	if !s.decodeBody(w, r, func(d *wire.Body) { decodeDatasetRequest(d, &req, &rels) }) {
		return
	}

	var (
		ds      *ucq.Dataset
		created bool
		err     error
	)
	if req.Append {
		var ok bool
		if ds, ok = s.catalog.Dataset(name); !ok {
			s.httpError(w, http.StatusNotFound, "no dataset %q to append to", name)
			return
		}
		var delta *ucq.Instance
		if delta, err = rels.Delta(); err == nil {
			_, err = ds.Append(delta)
		}
	} else {
		var inst *ucq.Instance
		if inst, err = rels.Instance(); err == nil {
			ds, created, err = s.catalog.Upsert(name, inst)
		}
	}
	switch {
	case errors.Is(err, ucq.ErrDatasetDropped):
		// A concurrent DELETE displaced the registration this write went
		// to; nothing was written or journaled.
		s.httpError(w, http.StatusConflict, "dataset %q was dropped concurrently", name)
		return
	case err != nil:
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if created {
		// A fresh registration's query gauge starts at zero, even when a
		// dropped dataset of the same name left a stale counter behind.
		// created is decided under the catalog lock, so the reset cannot
		// race a concurrent DELETE into resurrecting the old count.
		s.dsMu.Lock()
		delete(s.dsQueries, name)
		s.dsMu.Unlock()
	}
	s.writeDatasetInfo(w, ds)
}

// writeDatasetInfo responds with the dataset's current version and size.
func (s *Server) writeDatasetInfo(w http.ResponseWriter, ds *ucq.Dataset) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ds.Info())
}

// handleDatasetList serves the catalog listing.
func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	list := DatasetListResponse{Datasets: s.catalog.List()}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(list)
}

// handleDatasetGet serves one dataset's listing entry.
func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	ds, ok := s.catalog.Dataset(r.PathValue("name"))
	if !ok {
		s.httpError(w, http.StatusNotFound, "no dataset %q", r.PathValue("name"))
		return
	}
	s.writeDatasetInfo(w, ds)
}

// handleDatasetDelete drops a dataset and its cached binds. In-flight
// query streams keep the snapshot they were bound to.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	name := r.PathValue("name")
	if !s.catalog.Drop(name) {
		s.httpError(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	s.dsMu.Lock()
	delete(s.dsQueries, name)
	s.dsMu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleDatasetQuery evaluates a UCQ against a registered dataset's
// current snapshot and streams the answers as NDJSON, exactly like
// /query, except that the instance rides in no request body: the
// preparation comes from the plan cache and the per-instance
// preprocessing from the bind cache, so a warm (query, dataset) pair does
// no planning work at all before the first answer.
func (s *Server) handleDatasetQuery(w http.ResponseWriter, r *http.Request) {
	req, plan, meta, ok := s.bindDatasetPlan(w, r)
	if !ok {
		return
	}
	if req.Options.CountOnly {
		s.respondCount(w, r, plan, meta, req.Limit)
		return
	}
	s.stream(w, r, func(ctx context.Context) answerBatches { return plan.AnswersContext(ctx) }, meta, req.Limit)
}

// bindDatasetPlan decodes a dataset request and binds its query against
// the named dataset's current snapshot, handling errors (ok=false means
// the response is already written).
func (s *Server) bindDatasetPlan(w http.ResponseWriter, r *http.Request) (QueryRequest, *ucq.Plan, streamMeta, bool) {
	s.stats.requests.Add(1)
	name := r.PathValue("name")

	var rels wire.Relations
	req, u, mode, ok := s.decodeQuery(w, r, &rels)
	if !ok {
		return req, nil, streamMeta{}, false
	}
	if rels.Len() > 0 {
		s.httpError(w, http.StatusBadRequest,
			"inline relations are not allowed on dataset queries; PUT /datasets/%s instead", name)
		return req, nil, streamMeta{}, false
	}
	ds, ok := s.catalog.Dataset(name)
	if !ok {
		s.httpError(w, http.StatusNotFound, "no dataset %q", name)
		return req, nil, streamMeta{}, false
	}

	pq, hit, err := s.prepared(mode, u)
	if err != nil {
		s.planError(w, err)
		return req, nil, streamMeta{}, false
	}

	// The per-instance half: Theorem 12 preprocessing on a bind-cache
	// miss, a pointer copy on a hit. The plan pins the snapshot it was
	// bound against — a concurrent Replace bumps the version for later
	// requests but never disturbs this stream.
	plan, err := pq.BindDatasetContext(r.Context(), ds)
	if err != nil {
		if r.Context().Err() != nil {
			s.stats.requestsCancelled.Add(1)
			return req, nil, streamMeta{}, false
		}
		s.planError(w, err)
		return req, nil, streamMeta{}, false
	}

	s.dsMu.Lock()
	s.dsQueries[name]++
	s.dsMu.Unlock()

	return req, plan, streamMeta{
		arity:     plan.Query.Arity(),
		mode:      plan.Mode.String(),
		cache:     cacheState(hit),
		bind:      cacheState(plan.BindCacheHit()),
		dataset:   plan.DatasetName(),
		dsVersion: plan.DatasetVersion(),
	}, true
}
