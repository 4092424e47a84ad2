package server

// Coordinator mode: when Config.Cluster names workers, the /datasets
// endpoints stop touching the local catalog and instead fan out over the
// cluster — PUT replicates the dataset to every worker (through each
// worker's PR-style catalog and versioned bind cache), and
// /datasets/{name}/query scatters the query by root-row ranges, merging
// the worker streams dedup-free (see internal/cluster). The inline
// /query endpoint keeps evaluating locally: it carries its instance in
// the request and gains nothing from placement. /stats grows a "cluster"
// section with scatter counters and namespaced per-worker snapshots.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

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
	// Shape-check before fanning out: a malformed body should cost one 400,
	// not len(workers) rejected replications.
	var req DatasetRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.httpError(w, http.StatusBadRequest, "decoding request: %v", err)
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
// and streams the merged answers in the client's negotiated encoding.
// The scatter hop already decoded worker streams to tuples, so re-framing
// here is a straight encode — a binary-speaking client never pays for a
// text round trip through the coordinator.
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
	// The merged stream holds worker connections and buffers for its whole
	// life: it is exactly the resource the admission gate meters.
	if !s.admitStream(w, r) {
		return
	}
	defer s.admission.release()

	stream, err := s.cluster.Query(r.Context(), cluster.QuerySpec{Dataset: name, Query: req.Query, Mode: mode})
	if err != nil {
		if r.Context().Err() != nil {
			s.stats.requestsCancelled.Add(1)
			return
		}
		s.clusterError(w, err)
		return
	}
	defer stream.Close()

	hdr := stream.Header
	media := negotiateEncoding(r.Header.Get("Accept"))
	enc, err := newAnswerEncoder(w, media, hdr.Arity)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", enc.contentType())
	w.Header().Set("X-Ucq-Mode", hdr.Mode)
	w.Header().Set("X-Ucq-Cache", hdr.Cache)
	w.Header().Set("X-Ucq-Bind", hdr.Bind)
	w.Header().Set("X-Ucq-Dataset-Version", fmt.Sprint(hdr.DatasetVersion))
	w.Header().Set("X-Ucq-Scatter", hdr.Scatter)
	w.Header().Set("X-Ucq-Workers", fmt.Sprint(hdr.Workers))
	w.WriteHeader(http.StatusOK)

	start := time.Now()
	prev := start
	var firstAnswer, maxDelay time.Duration
	count := 0
	limited := false
	disconnected := false
drain:
	for chunk := range stream.C {
		now := time.Now()
		if count == 0 {
			firstAnswer = now.Sub(start)
		} else if d := now.Sub(prev); d > maxDelay {
			maxDelay = d
		}
		prev = now
		for _, t := range chunk.Tuples {
			if err := enc.appendTuple(t); err != nil {
				disconnected = true
				break drain
			}
			count++
			if req.Limit > 0 && count >= req.Limit {
				limited = true
				stream.Close()
				break drain
			}
		}
		if err := enc.flush(); err != nil {
			disconnected = true
			break
		}
	}
	if count == 0 {
		firstAnswer = time.Since(start)
	}
	s.stats.answersStreamed.Add(int64(count))
	s.stats.RecordTiming(firstAnswer, maxDelay)
	if disconnected || r.Context().Err() != nil {
		s.stats.requestsCancelled.Add(1)
		s.stats.recordWire(media, count, enc.bytesOut())
		return
	}
	if err := stream.Err(); err != nil && !limited {
		// The merge failed mid-stream: no trailer — the stream is visibly
		// truncated — but say why with a terminal error record.
		s.stats.errors.Add(1)
		_ = enc.streamError(err.Error())
		s.endStream(enc, media, count)
		return
	}
	s.stats.streamsCompleted.Add(1)
	_ = enc.trailer(Trailer{
		Done:           true,
		Count:          count,
		Mode:           hdr.Mode,
		Cache:          hdr.Cache,
		Dataset:        hdr.Dataset,
		DatasetVersion: hdr.DatasetVersion,
		Bind:           hdr.Bind,
		Scatter:        hdr.Scatter,
		Workers:        hdr.Workers,
	})
	s.endStream(enc, media, count)
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
