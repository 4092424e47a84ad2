package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/database"
	"repro/internal/wire"
)

// Defaults for Config zero values.
const (
	// DefaultStallTimeout is the per-worker deadline: the longest a scatter
	// call may go without stream progress before it is cancelled and its
	// remaining range re-queued.
	DefaultStallTimeout = 30 * time.Second
	// DefaultMaxAttempts bounds how many failed calls one root-row range
	// survives before the query fails.
	DefaultMaxAttempts = 4
	// DefaultBackoff is the base retry backoff (doubled per consecutive
	// failure of the same worker).
	DefaultBackoff = 50 * time.Millisecond
	// DefaultMarkerEvery is the progress-marker interval requested from
	// workers, in answers.
	DefaultMarkerEvery = 128
)

// Config tunes a Coordinator.
type Config struct {
	// Workers lists the worker base URLs (required; see NormalizeWorkers).
	Workers []string
	// Client issues the HTTP calls (nil = a fresh http.Client).
	Client *http.Client
	// StallTimeout is the per-worker deadline (0 = DefaultStallTimeout).
	StallTimeout time.Duration
	// MaxAttempts bounds per-range scatter attempts (0 = DefaultMaxAttempts).
	MaxAttempts int
	// Backoff is the base retry backoff (0 = DefaultBackoff).
	Backoff time.Duration
	// MarkerEvery is the requested marker interval (0 = DefaultMarkerEvery).
	MarkerEvery int
}

// ErrUnknownDataset reports a query against a dataset that was never
// registered through this coordinator.
var ErrUnknownDataset = errors.New("cluster: dataset not registered through this coordinator")

// DatasetInfo mirrors the worker wire shape of one dataset listing entry.
type DatasetInfo struct {
	Name      string `json:"name"`
	Version   uint64 `json:"version"`
	Rows      int    `json:"rows"`
	Relations int    `json:"relations"`
}

// dsEntry is the coordinator's registry record for one dataset: the
// listing info plus the per-worker versions captured when the replicas
// were written — the snapshot guard every scatter call carries.
type dsEntry struct {
	info     DatasetInfo
	versions map[string]uint64
}

// Totals are the coordinator's cumulative scatter counters, surfaced
// under /stats on the coordinator.
type Totals struct {
	// ScatterQueries counts queries fanned out by root range.
	ScatterQueries int64 `json:"scatter_queries"`
	// SingleWorkerFallbacks counts queries routed whole to one worker
	// because the plan was not root-range partitionable.
	SingleWorkerFallbacks int64 `json:"single_worker_fallbacks"`
	// ScatterCalls counts range-scoped worker calls (including re-issues).
	ScatterCalls int64 `json:"scatter_calls"`
	// ScatterRetries counts ranges re-queued after a failed call.
	ScatterRetries int64 `json:"scatter_retries"`
	// ScatterResplits counts straggler re-splits.
	ScatterResplits int64 `json:"scatter_resplits"`
}

// Coordinator owns a static worker topology and fans dataset writes and
// queries out over it. All methods are safe for concurrent use.
type Coordinator struct {
	cfg     Config
	workers []string
	sc      *scatterClient

	mu       sync.Mutex
	datasets map[string]*dsEntry

	scatterQueries  atomic.Int64
	fallbackQueries atomic.Int64
	scatterCalls    atomic.Int64
	scatterRetries  atomic.Int64
	scatterResplits atomic.Int64
}

// New builds a Coordinator over a normalized worker list.
func New(cfg Config) (*Coordinator, error) {
	workers, err := NormalizeWorkers(cfg.Workers)
	if err != nil {
		return nil, err
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: NewTransport()}
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = DefaultStallTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultBackoff
	}
	if cfg.MarkerEvery <= 0 {
		cfg.MarkerEvery = DefaultMarkerEvery
	}
	return &Coordinator{
		cfg:      cfg,
		workers:  workers,
		sc:       &scatterClient{hc: cfg.Client, stall: cfg.StallTimeout},
		datasets: make(map[string]*dsEntry),
	}, nil
}

// Workers returns the normalized worker list.
func (c *Coordinator) Workers() []string {
	out := make([]string, len(c.workers))
	copy(out, c.workers)
	return out
}

// Totals returns the cumulative scatter counters.
func (c *Coordinator) Totals() Totals {
	return Totals{
		ScatterQueries:        c.scatterQueries.Load(),
		SingleWorkerFallbacks: c.fallbackQueries.Load(),
		ScatterCalls:          c.scatterCalls.Load(),
		ScatterRetries:        c.scatterRetries.Load(),
		ScatterResplits:       c.scatterResplits.Load(),
	}
}

// PutDataset replicates a dataset write (the raw PUT /datasets/{name}
// body — replace or append) to every worker and registers the dataset.
// Placement is replicate-all: every worker holds the full dataset, which
// is what lets any peer serve any root range during retries and
// re-splits (partial placement with a replication factor is future work).
// The write registers only when every worker accepted it; on partial
// failure the error names the failed workers and the dataset stays
// unregistered (or keeps its previous registration) — re-PUT to converge.
func (c *Coordinator) PutDataset(ctx context.Context, name string, body []byte) (DatasetInfo, error) {
	type result struct {
		worker string
		info   DatasetInfo
		err    error
	}
	results := make([]result, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w string) {
			defer wg.Done()
			info, err := c.putOne(ctx, w, name, body)
			results[i] = result{worker: w, info: info, err: err}
		}(i, w)
	}
	wg.Wait()

	versions := make(map[string]uint64, len(c.workers))
	var failures []string
	var info DatasetInfo
	for i, r := range results {
		if r.err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", r.worker, r.err))
			continue
		}
		versions[r.worker] = r.info.Version
		if i == 0 || info.Name == "" {
			info = r.info
		}
	}
	if len(failures) > 0 {
		return DatasetInfo{}, fmt.Errorf("cluster: dataset %q not replicated to all workers: %s",
			name, joinLimited(failures, 3))
	}
	c.mu.Lock()
	c.datasets[name] = &dsEntry{info: info, versions: versions}
	c.mu.Unlock()
	return info, nil
}

// putOne writes one worker's replica, with one retry for transient
// transport errors (a PUT is idempotent: replace bodies converge, and a
// duplicated append surfaces as a version/row mismatch in the response we
// record, not silent divergence — the all-or-nothing registration above
// catches real failures).
func (c *Coordinator) putOne(ctx context.Context, worker, name string, body []byte) (DatasetInfo, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(c.cfg.Backoff):
			case <-ctx.Done():
				return DatasetInfo{}, ctx.Err()
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, worker+"/datasets/"+name, bytes.NewReader(body))
		if err != nil {
			return DatasetInfo{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			var we struct {
				Error string `json:"error"`
			}
			msg := resp.Status
			if json.Unmarshal(raw, &we) == nil && we.Error != "" {
				msg = we.Error
			}
			// Client-level rejections (bad body, missing append target) are
			// deterministic; don't retry them.
			return DatasetInfo{}, &workerError{worker: worker, status: resp.StatusCode, msg: msg}
		}
		var info DatasetInfo
		if err := json.Unmarshal(raw, &info); err != nil {
			return DatasetInfo{}, fmt.Errorf("decoding dataset info: %v", err)
		}
		return info, nil
	}
	return DatasetInfo{}, lastErr
}

// DropDataset deletes the dataset from every worker and deregisters it.
// Workers that no longer have it (404) count as success.
func (c *Coordinator) DropDataset(ctx context.Context, name string) error {
	c.mu.Lock()
	_, known := c.datasets[name]
	c.mu.Unlock()
	if !known {
		return ErrUnknownDataset
	}
	var failures []string
	var fmu sync.Mutex
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodDelete, w+"/datasets/"+name, nil)
			if err == nil {
				var resp *http.Response
				resp, err = c.cfg.Client.Do(req)
				if err == nil {
					io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
			}
			if err != nil {
				fmu.Lock()
				failures = append(failures, fmt.Sprintf("%s: %v", w, err))
				fmu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(failures) > 0 {
		return fmt.Errorf("cluster: dataset %q not dropped on all workers: %s", name, joinLimited(failures, 3))
	}
	c.mu.Lock()
	delete(c.datasets, name)
	c.mu.Unlock()
	return nil
}

// Datasets lists the registered datasets, sorted by name.
func (c *Coordinator) Datasets() []DatasetInfo {
	c.mu.Lock()
	out := make([]DatasetInfo, 0, len(c.datasets))
	for _, e := range c.datasets {
		out = append(out, e.info)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Dataset returns one registered dataset's info.
func (c *Coordinator) Dataset(name string) (DatasetInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.datasets[name]
	if !ok {
		return DatasetInfo{}, false
	}
	return e.info, true
}

// QuerySpec names a distributed query.
type QuerySpec struct {
	// Dataset is the registered dataset name.
	Dataset string
	// Query is the UCQ source.
	Query string
	// Mode is "auto" (default) or "naive".
	Mode string
}

// Query evaluates a UCQ across the cluster and returns the merged stream.
// A probe against the dataset's rendezvous owner decides the strategy:
// root-range scatter over all workers when the plan's answer set is
// root-range partitionable, otherwise the whole query goes to one worker
// (still dedup-free — it is one stream). Either way every delivered chunk
// is exact: the marker protocol and per-worker version guards mean a
// retried or re-split call never duplicates or drops an answer. Query
// itself only probes; the stream fans out, under ctx, at its first Next.
func (c *Coordinator) Query(ctx context.Context, spec QuerySpec) (*Stream, error) {
	c.mu.Lock()
	entry, ok := c.datasets[spec.Dataset]
	versions := make(map[string]uint64)
	if ok {
		for w, v := range entry.versions {
			versions[w] = v
		}
	}
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, spec.Dataset)
	}

	base := ScatterRequest{Query: spec.Query, Mode: spec.Mode, RootHi: -1, MarkerEvery: c.cfg.MarkerEvery}
	order := rendezvousOrder(c.workers, spec.Dataset+"\x00"+spec.Query)

	var hdr *ScatterHeader
	var lastErr error
	for _, w := range order {
		req := base
		req.Version = versions[w]
		h, err := c.sc.probe(ctx, w, spec.Dataset, &req)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, err
			}
			continue
		}
		hdr = h
		break
	}
	if hdr == nil {
		return nil, fmt.Errorf("cluster: no worker answered the probe: %w", lastErr)
	}

	head := Header{
		Mode:           hdr.Mode,
		Cache:          hdr.Cache,
		Bind:           hdr.Bind,
		Dataset:        hdr.Dataset,
		DatasetVersion: hdr.DatasetVersion,
		Arity:          hdr.Arity,
	}
	if hdr.Scatterable {
		head.RootLen = hdr.RootLen
		head.Scatter = "root-range"
		head.Workers = len(c.workers)
		c.scatterQueries.Add(1)
		return &Stream{Header: head, open: func(st *Stream) {
			c.gatherStream(ctx, st, versions, base, spec.Dataset)
		}}, nil
	}
	head.Scatter = "single-worker"
	head.Workers = 1
	c.fallbackQueries.Add(1)
	body, err := json.Marshal(map[string]any{"query": spec.Query, "options": map[string]string{"mode": spec.Mode}})
	if err != nil {
		return nil, err
	}
	return &Stream{Header: head, open: func(st *Stream) {
		c.fallbackStream(ctx, st, spec.Dataset, body, order)
	}}, nil
}

// fallbackStream routes the whole query to a single worker (in rendezvous
// order) and re-frames its answer stream as chunks. It retries on the next
// worker only while nothing has been delivered — without markers a partial
// stream has no exact resume point, so a mid-stream failure after delivery
// terminates the stream with an error instead of risking duplicates.
func (c *Coordinator) fallbackStream(ctx context.Context, st *Stream, dataset string, body []byte, order []string) {
	sctx, cancel := context.WithCancel(ctx)
	out := make(chan []database.Tuple, 4)
	st.c, st.cancel = out, cancel
	go func() {
		defer close(out)
		var lastErr error
		for _, w := range order {
			delivered, err := c.fallbackOnce(sctx, w, dataset, body, out)
			if err == nil {
				return
			}
			lastErr = err
			if delivered || sctx.Err() != nil {
				// Answers already left for the client: no dedup-safe retry.
				if sctx.Err() == nil {
					st.err = err
				}
				return
			}
		}
		if sctx.Err() == nil {
			st.err = fmt.Errorf("cluster: single-worker fallback failed on every worker: %w", lastErr)
		}
	}()
}

// fallbackOnce streams one worker's full answer set into out, re-framed
// as chunks of at most MarkerEvery tuples, under the same stall deadline as
// scatter calls. delivered reports whether any chunk reached the consumer.
func (c *Coordinator) fallbackOnce(ctx context.Context, worker, dataset string, body []byte, out chan<- []database.Tuple) (delivered bool, err error) {
	var tuples []database.Tuple
	flush := func() error {
		if len(tuples) == 0 {
			return nil
		}
		select {
		case out <- tuples:
			delivered = true
			tuples = nil
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	err = c.sc.stream(ctx, worker, "/datasets/"+dataset+"/query", body, func(fr *wire.Frame) (bool, error) {
		switch fr.Kind {
		case wire.KindBlock:
			tuples = append(tuples, fr.Tuples...)
			if len(tuples) >= c.cfg.MarkerEvery {
				return false, flush()
			}
		case wire.KindTrailer:
			return false, flush()
		}
		return false, nil
	})
	return delivered, err
}

// ProxyCount forwards a count request body to one worker (rendezvous
// order, trying the next on transport failure) and returns its response
// verbatim. Every worker holds the full replica, so any single answer is
// the cluster answer.
func (c *Coordinator) ProxyCount(ctx context.Context, dataset string, body []byte) (status int, respBody []byte, err error) {
	c.mu.Lock()
	_, known := c.datasets[dataset]
	c.mu.Unlock()
	if !known {
		return 0, nil, ErrUnknownDataset
	}
	order := rendezvousOrder(c.workers, dataset)
	var lastErr error
	for _, w := range order {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w+"/datasets/"+dataset+"/count", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return 0, nil, err
			}
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		return resp.StatusCode, raw, nil
	}
	return 0, nil, fmt.Errorf("cluster: no worker answered the count: %w", lastErr)
}

// WorkerStats fetches every worker's /stats snapshot concurrently (bounded
// by a short per-worker timeout) for the coordinator's namespaced stats
// aggregation. The error map carries per-worker fetch failures.
func (c *Coordinator) WorkerStats(ctx context.Context) (map[string]json.RawMessage, map[string]string) {
	stats := make(map[string]json.RawMessage, len(c.workers))
	errs := make(map[string]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w string) {
			defer wg.Done()
			wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(wctx, http.MethodGet, w+"/stats", nil)
			if err == nil {
				var resp *http.Response
				resp, err = c.cfg.Client.Do(req)
				if err == nil {
					var raw []byte
					raw, err = io.ReadAll(io.LimitReader(resp.Body, 4<<20))
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
					if err == nil {
						mu.Lock()
						stats[w] = json.RawMessage(raw)
						mu.Unlock()
						return
					}
				}
			}
			mu.Lock()
			errs[w] = err.Error()
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return stats, errs
}

// joinLimited joins up to n items, noting how many were elided.
func joinLimited(items []string, n int) string {
	if len(items) <= n {
		return fmt.Sprintf("%v", items)
	}
	return fmt.Sprintf("%v (+%d more)", items[:n], len(items)-n)
}
