package server

// Coordinator mode: when Config.Cluster names workers, the /datasets
// endpoints stop touching the local catalog and instead fan out over the
// cluster — PUT replicates the dataset to every worker (through each
// worker's PR-style catalog and versioned bind cache), and
// /datasets/{name}/query scatters the query by root-row ranges, merging
// the workers' binary answer streams dedup-free (see internal/cluster).
// The inline /query endpoint keeps evaluating locally: it carries its
// instance in the request and gains nothing from placement. /stats grows a
// "cluster" section with scatter counters and namespaced per-worker
// snapshots.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	ucq "repro"
	"repro/internal/cluster"
)

// clusterError maps a cluster-layer failure onto an HTTP status: unknown
// datasets are the client's 404, worker-reported client errors (400, 404,
// 409) pass through, and transport-level trouble is a 502.
func (s *Server) clusterError(w http.ResponseWriter, err error) {
	if errors.Is(err, cluster.ErrUnknownDataset) {
		s.httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	if status, ok := cluster.WorkerStatus(err); ok && status >= 400 && status < 500 {
		s.httpError(w, status, "%v", err)
		return
	}
	s.httpError(w, http.StatusBadGateway, "%v", err)
}

// handleClusterDatasetPut replicates a dataset write to every worker.
func (s *Server) handleClusterDatasetPut(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	// Shape-check before fanning out, as strictly as a worker will: a
	// malformed body or a misspelt field should cost one 400, not
	// len(workers) rejected replications.
	var req DatasetRequest
	if !s.decodeStrict(w, bytes.NewReader(body), &req) {
		return
	}
	info, err := s.cluster.PutDataset(r.Context(), name, body)
	if err != nil {
		s.clusterError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(DatasetInfo(info))
}

// handleClusterDatasetList serves the coordinator's dataset registry.
func (s *Server) handleClusterDatasetList(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	list := DatasetListResponse{Datasets: []DatasetInfo{}}
	for _, info := range s.cluster.Datasets() {
		list.Datasets = append(list.Datasets, DatasetInfo(info))
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(list)
}

// handleClusterDatasetGet serves one registered dataset's info.
func (s *Server) handleClusterDatasetGet(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	info, ok := s.cluster.Dataset(r.PathValue("name"))
	if !ok {
		s.httpError(w, http.StatusNotFound, "no dataset %q", r.PathValue("name"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(DatasetInfo(info))
}

// handleClusterDatasetDelete drops a dataset across the cluster.
func (s *Server) handleClusterDatasetDelete(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	if err := s.cluster.DropDataset(r.Context(), r.PathValue("name")); err != nil {
		s.clusterError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleClusterDatasetCount proxies a count to one worker: placement is
// replicate-all, so any single worker's exact count is the cluster's.
func (s *Server) handleClusterDatasetCount(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	name := r.PathValue("name")
	req, _, mode, _, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	if len(req.Relations) > 0 {
		s.httpError(w, http.StatusBadRequest,
			"inline relations are not allowed on dataset queries; PUT /datasets/%s instead", name)
		return
	}
	s.proxyCount(w, r, name, req.Query, mode)
}

// proxyCount forwards a rebuilt count-only request to one worker and
// relays the response.
func (s *Server) proxyCount(w http.ResponseWriter, r *http.Request, name, query, mode string) {
	body, _ := json.Marshal(QueryRequest{Query: query, Options: QueryOptions{Mode: mode, CountOnly: true}})
	status, raw, err := s.cluster.ProxyCount(r.Context(), name, body)
	if err != nil {
		s.clusterError(w, err)
		return
	}
	if status != http.StatusOK {
		s.stats.errors.Add(1)
	} else {
		s.stats.streamsCompleted.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(raw)
}

// handleClusterDatasetQuery scatters a dataset query across the workers
// and streams the merged answers like any other answer stream: the merged
// cluster.Stream is an iterator of tuples, so the client's negotiated
// encoding, admission, limits and error trailers are the ones stream
// applies to local plans.
func (s *Server) handleClusterDatasetQuery(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	name := r.PathValue("name")
	req, _, mode, _, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	if len(req.Relations) > 0 {
		s.httpError(w, http.StatusBadRequest,
			"inline relations are not allowed on dataset queries; PUT /datasets/%s instead", name)
		return
	}
	if req.Options.Workers != 0 {
		s.httpError(w, http.StatusBadRequest,
			"cluster queries pick execution per worker; an explicit workers count is not supported here")
		return
	}
	if req.Options.CountOnly {
		s.proxyCount(w, r, name, req.Query, mode)
		return
	}
	// Query only probes; the merged stream ties up worker connections from
	// its first Next, which stream calls once the admission slot is held.
	merged, err := s.cluster.Query(r.Context(), cluster.QuerySpec{Dataset: name, Query: req.Query, Mode: mode})
	if err != nil {
		if r.Context().Err() != nil {
			s.stats.requestsCancelled.Add(1)
			return
		}
		s.clusterError(w, err)
		return
	}
	hdr := merged.Header
	s.stream(w, r, func(context.Context) ucq.Answers { return merged }, streamMeta{
		arity:     hdr.Arity,
		mode:      hdr.Mode,
		cache:     hdr.Cache,
		bind:      hdr.Bind,
		dataset:   hdr.Dataset,
		dsVersion: hdr.DatasetVersion,
		scatter:   hdr.Scatter,
		workers:   hdr.Workers,
	}, req.Limit)
}

// clusterSnapshot builds the /stats cluster section: the coordinator's
// own scatter counters plus every worker's full snapshot, namespaced per
// worker, with explicitly-labelled cross-worker totals for the counters
// that are otherwise misleadingly process-local (a coordinator streams
// merged answers but makes no auto decisions; its workers do).
func (s *Server) clusterSnapshot(ctx context.Context) *ClusterSnapshot {
	workerStats, workerErrs := s.cluster.WorkerStats(ctx)
	cs := &ClusterSnapshot{
		Workers:      s.cluster.Workers(),
		Scatter:      s.cluster.Totals(),
		WorkerStats:  workerStats,
		WorkerErrors: workerErrs,
	}
	for _, info := range s.cluster.Datasets() {
		cs.Datasets = append(cs.Datasets, DatasetInfo(info))
	}
	totals := struct {
		answers   int64
		decisions map[string]int64
	}{decisions: make(map[string]int64)}
	for _, raw := range workerStats {
		var snap struct {
			AnswersStreamed int64            `json:"answers_streamed"`
			DecisionModes   map[string]int64 `json:"decision_modes"`
		}
		if json.Unmarshal(raw, &snap) != nil {
			continue
		}
		totals.answers += snap.AnswersStreamed
		for k, v := range snap.DecisionModes {
			totals.decisions[k] += v
		}
	}
	cs.WorkerAnswersStreamedTotal = totals.answers
	cs.WorkerDecisionModesTotal = totals.decisions
	return cs
}
