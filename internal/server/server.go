// Package server implements the streaming UCQ evaluation service: a
// long-lived HTTP process answering ucq-run-style requests with a
// prepared-plan cache keyed on (normalized query, schema).
//
// POST /query evaluates one UCQ over the instance carried in the request
// and streams the answers as NDJSON with chunked flushing: the first tuple
// leaves the socket while enumeration is still running, preserving the
// constant-delay character of certified plans end to end. The
// instance-independent half of planning — redundancy removal and the
// Theorem 12 certificate search — is served from a concurrency-safe LRU
// cache, so repeated queries pay only the per-instance preprocessing.
//
// The /datasets endpoints remove that remaining per-request cost: PUT
// /datasets/{name} registers (or replaces/appends, with a version bump) a
// named dataset in the server's catalog, and POST /datasets/{name}/query
// evaluates against its current immutable snapshot with the per-instance
// preprocessing served from the catalog's versioned bind cache — the
// second identical query goes straight to enumeration.
//
// GET /stats exposes plan- and bind-cache hit/miss/eviction/expiration
// counters, per-dataset gauges, answers streamed, and per-request delay
// percentiles; GET /healthz is a liveness probe.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	ucq "repro"
	"repro/internal/storage"
)

// Config tunes a Server.
type Config struct {
	// CacheSize caps the prepared-plan cache (0 = DefaultCacheSize).
	CacheSize int
	// CacheTTL expires prepared-plan entries this long after preparation
	// (0 = never); expired entries are re-prepared on next use.
	CacheTTL time.Duration
	// BindCacheSize caps the catalog's bind cache (0 =
	// ucq.DefaultBindCacheSize).
	BindCacheSize int
	// BindCacheTTL expires cached dataset binds (0 = never).
	BindCacheTTL time.Duration
	// FlushEvery flushes the response after this many answers beyond the
	// first (0 = DefaultFlushEvery). The first answer always flushes
	// immediately.
	FlushEvery int
	// MaxBodyBytes caps the request body (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// DataDir makes the dataset catalog durable (Open only): every dataset
	// mutation is journaled under this directory — snapshot plus fsynced
	// WAL — before it is acknowledged, and the next Open replays the
	// journal, recovering every dataset at its acknowledged version. Empty
	// keeps the catalog in-memory. Ignored by New.
	DataDir string
	// MaxStreams caps the concurrent answer-streaming requests (inline
	// queries and dataset queries; count-only requests are not gated). 0 =
	// 2*GOMAXPROCS — streaming enumeration is CPU-bound, so slots beyond
	// that only add queueing inside the process.
	MaxStreams int
	// QueueDeadline is how long a streaming request may wait for a slot
	// before it is shed with 429 + Retry-After (0 =
	// DefaultQueueDeadline).
	QueueDeadline time.Duration
	// MaxSubscriptions caps concurrent /subscribe streams (0 =
	// DefaultMaxSubscriptions). Subscriptions are long-lived, so they get
	// their own admission gate with a distinct 429 reason instead of
	// pinning MaxStreams slots and starving one-shot queries.
	MaxSubscriptions int
	// AppendLogSize caps each dataset's retained append-delta log (0 =
	// ucq.DefaultAppendLogSize, negative = retain nothing): the window a
	// lagging subscriber can catch up over incrementally before it is
	// degraded to a resync.
	AppendLogSize int
}

// Defaults for Config zero values.
const (
	DefaultCacheSize    = 128
	DefaultFlushEvery   = 256
	DefaultMaxBodyBytes = 64 << 20
	// DefaultQueueDeadline is the longest a streaming request waits for an
	// admission slot before being shed.
	DefaultQueueDeadline = time.Second
	// DefaultMaxSubscriptions caps concurrent /subscribe streams. Distinct
	// from MaxStreams: a subscription lives until the client hangs up, so
	// sharing the query gate would let a handful of subscribers starve
	// every one-shot query.
	DefaultMaxSubscriptions = 64
)

// Server is the streaming UCQ evaluation service. Create with New; the
// zero value is not usable.
type Server struct {
	cache   *PlanCache
	catalog *ucq.Catalog
	stats   Stats
	cfg     Config

	// store is non-nil when the server was built by Open with a DataDir:
	// the catalog journals through it and /stats surfaces its gauges.
	store *storage.Store

	// admission gates concurrent streaming requests (see admission.go);
	// subAdmission is the separate gate for long-lived /subscribe streams.
	admission    *admission
	subAdmission *admission

	// dsMu guards dsQueries, the per-dataset query counters surfaced as
	// /stats gauges.
	dsMu      sync.Mutex
	dsQueries map[string]int64
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = DefaultFlushEvery
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDeadline <= 0 {
		cfg.QueueDeadline = DefaultQueueDeadline
	}
	if cfg.MaxSubscriptions <= 0 {
		cfg.MaxSubscriptions = DefaultMaxSubscriptions
	}
	return &Server{
		admission:    newAdmission(cfg.MaxStreams, cfg.QueueDeadline),
		subAdmission: newAdmission(cfg.MaxSubscriptions, cfg.QueueDeadline),
		cache:        NewPlanCacheTTL(cfg.CacheSize, cfg.CacheTTL),
		catalog: ucq.NewCatalogConfig(ucq.CatalogConfig{
			BindCacheSize: cfg.BindCacheSize,
			BindCacheTTL:  cfg.BindCacheTTL,
			AppendLogSize: cfg.AppendLogSize,
		}),
		cfg:       cfg,
		dsQueries: make(map[string]int64),
	}
}

// Open builds a Server like New and, when cfg.DataDir is set, swaps in a
// durable catalog: dataset mutations are journaled under the directory
// before they are acknowledged, and Open replays the journal so a
// restarted process serves every dataset at the version its clients last
// saw. Close the server to release the store. With an empty DataDir, Open
// is New without the error path.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	cat, st, err := ucq.OpenCatalog(cfg.DataDir, ucq.CatalogConfig{
		BindCacheSize: cfg.BindCacheSize,
		BindCacheTTL:  cfg.BindCacheTTL,
		AppendLogSize: cfg.AppendLogSize,
	})
	if err != nil {
		return nil, err
	}
	s.catalog = cat
	s.store = st
	return s, nil
}

// Close releases the durable store behind a Server built by Open with a
// DataDir. A no-op on servers without durable storage.
func (s *Server) Close() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// Catalog returns the server's dataset catalog — the registry behind the
// /datasets endpoints, exposed for embedding processes that want to
// register datasets programmatically.
func (s *Server) Catalog() *ucq.Catalog { return s.catalog }

// Handler returns the HTTP handler serving /query, /datasets, /stats and
// /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("PUT /datasets/{name}", s.handleDatasetPut)
	mux.HandleFunc("GET /datasets", s.handleDatasetList)
	mux.HandleFunc("GET /datasets/{name}", s.handleDatasetGet)
	mux.HandleFunc("DELETE /datasets/{name}", s.handleDatasetDelete)
	mux.HandleFunc("POST /datasets/{name}/query", s.handleDatasetQuery)
	mux.HandleFunc("POST /datasets/{name}/count", s.handleDatasetCount)
	// Live subscription: initial answer set, then incremental deltas per
	// append, maintained from the dataset's append log (subscribe.go).
	mux.HandleFunc("GET /datasets/{name}/subscribe", s.handleSubscribe)
	mux.HandleFunc("POST /datasets/{name}/subscribe", s.handleSubscribe)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// StatsSnapshot returns the server's current counters — the same data
// GET /stats serves.
func (s *Server) StatsSnapshot() Snapshot {
	var gauges []DatasetGauge
	s.dsMu.Lock()
	for _, info := range s.catalog.List() {
		gauges = append(gauges, DatasetGauge{
			Name:      info.Name,
			Version:   info.Version,
			Rows:      info.Rows,
			Relations: info.Relations,
			Queries:   s.dsQueries[info.Name],
		})
	}
	s.dsMu.Unlock()
	snap := Snapshot{
		Requests:          s.stats.requests.Load(),
		Errors:            s.stats.errors.Load(),
		AnswersStreamed:   s.stats.answersStreamed.Load(),
		StreamsCompleted:  s.stats.streamsCompleted.Load(),
		RequestsCancelled: s.stats.requestsCancelled.Load(),
		PlansPrepared:     s.stats.plansPrepared.Load(),
		Cache:             s.cache.Stats(),
		BindCache:         cacheStatsFrom(s.catalog.BindCacheStats()),
		DecisionModes: map[string]int64{
			"sequential": s.stats.decisionSequential.Load(),
			"parallel":   s.stats.decisionParallel.Load(),
		},
		Datasets: gauges,
		Delays:   s.stats.delays(),
		Wire: WireSnapshot{
			NDJSONRequests:      s.stats.ndjsonRequests.Load(),
			BinaryRequests:      s.stats.binaryRequests.Load(),
			NDJSONRows:          s.stats.ndjsonRows.Load(),
			BinaryRows:          s.stats.binaryRows.Load(),
			NDJSONBytes:         s.stats.ndjsonBytes.Load(),
			BinaryBytes:         s.stats.binaryBytes.Load(),
			StreamsActive:       s.admission.active.Load(),
			StreamsQueued:       s.admission.queued.Load(),
			StreamsShed:         s.admission.shed.Load(),
			MaxStreams:          s.cfg.MaxStreams,
			SubscriptionsActive: s.subAdmission.active.Load(),
			SubscriptionsShed:   s.subAdmission.shed.Load(),
			MaxSubscriptions:    s.cfg.MaxSubscriptions,
		},
		Subscriptions: SubscriptionsSnapshot{
			Active:           s.subAdmission.active.Load(),
			Started:          s.stats.subsStarted.Load(),
			DeltasEvaluated:  s.stats.deltasEvaluated.Load(),
			AnswersPushed:    s.stats.deltaAnswersPushed.Load(),
			Resyncs:          s.stats.subsResyncs.Load(),
			MaxSubscriptions: s.cfg.MaxSubscriptions,
		},
	}
	if s.store != nil {
		ss := s.store.Stats()
		snap.Storage = &StorageSnapshot{
			DataDir:        ss.Dir,
			Datasets:       ss.Datasets,
			Recovered:      ss.Recovered,
			TornTails:      ss.TornTails,
			WALRecords:     ss.WALRecords,
			WALBytes:       ss.WALBytes,
			SnapshotWrites: ss.SnapshotWrites,
		}
	}
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.StatsSnapshot())
}

// planKey builds the cache key: preparation mode, the schema the query
// references, and the canonical rendering of the parsed query (so
// whitespace, comments and punctuation variants of the same rules share
// one entry).
func planKey(mode string, u *ucq.UCQ) string {
	key := "mode=" + mode + "\n"
	for _, d := range u.Schema() {
		key += fmt.Sprintf("%s/%d;", d.Name, d.Arity)
	}
	return key + "\n" + u.String()
}

// httpError writes a JSON error body with the given status and counts the
// failure.
func (s *Server) httpError(w http.ResponseWriter, status int, format string, args ...any) {
	s.stats.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeQuery decodes and validates the parts of a query request shared by
// the inline-instance and dataset endpoints: the parsed union, the
// normalized mode and the per-request execution options. On failure it
// writes the error response and returns ok = false.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (req QueryRequest, u *ucq.UCQ, mode string, exec *ucq.PlanOptions, ok bool) {
	if !s.decodeBody(w, r, &req) {
		return req, nil, "", nil, false
	}
	u, err := ucq.Parse(req.Query)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "parsing query: %v", err)
		return req, nil, "", nil, false
	}
	mode = req.Options.Mode
	if mode == "" {
		mode = "auto"
	}
	if mode != "auto" && mode != "naive" {
		s.httpError(w, http.StatusBadRequest, "options.mode must be \"auto\" or \"naive\", got %q", mode)
		return req, nil, "", nil, false
	}
	if req.Limit < 0 {
		s.httpError(w, http.StatusBadRequest, "limit must be ≥ 0, got %d", req.Limit)
		return req, nil, "", nil, false
	}
	return req, u, mode, s.execOptions(mode, req.Options.Workers), true
}

// decodeBody decodes a JSON request body strictly: an unknown field — a
// misspelt or removed execution option, say — is a 400 naming it rather
// than a silently ignored knob. On failure it writes the error
// response and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// execOptions builds a request's execution options. Cost-based execution
// is the default: with no explicit worker count the planner decides per
// bind (and /stats counts the decisions).
func (s *Server) execOptions(mode string, workers int) *ucq.PlanOptions {
	return &ucq.PlanOptions{
		ForceNaive: mode == "naive",
		Workers:    workers,
		Auto:       workers == 0,
	}
}

// recordDecision counts an Auto bind's resolved strategy in /stats.
func (s *Server) recordDecision(plan *ucq.Plan) {
	d := plan.Decision()
	if d == nil {
		return
	}
	if d.Kind == "parallel" {
		s.stats.decisionParallel.Add(1)
	} else {
		s.stats.decisionSequential.Add(1)
	}
}

// prepared serves the instance-independent preparation from the LRU cache.
// Prepare sees only the mode-shaping options: execution options are
// applied (and validated) per request at bind time, so a request with
// invalid execution options can never poison the shared entry or the
// callers coalesced onto its in-flight preparation.
func (s *Server) prepared(mode string, u *ucq.UCQ) (*ucq.PreparedQuery, bool, error) {
	return s.cache.Get(planKey(mode, u), func() (*ucq.PreparedQuery, error) {
		s.stats.plansPrepared.Add(1)
		return ucq.Prepare(u, &ucq.PlanOptions{ForceNaive: mode == "naive"})
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)

	req, u, mode, exec, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	pq, hit, err := s.prepared(mode, u)
	if err != nil {
		s.planError(w, err)
		return
	}

	inst, err := ucq.InstanceFromRows(req.Relations)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Per-instance preprocessing; execution options come from this request
	// even when the preparation was cached by an earlier one. The request
	// context rides along: a client disconnect aborts a still-running bind
	// between extensions and, below, cancels the enumeration itself —
	// executor workers are released instead of enumerating to completion
	// for nobody.
	plan, err := pq.BindExecContext(r.Context(), inst, exec)
	if err != nil {
		if r.Context().Err() != nil {
			s.stats.requestsCancelled.Add(1)
			return
		}
		s.planError(w, err)
		return
	}
	s.recordDecision(plan)

	meta := streamMeta{arity: plan.Query.Arity(), mode: plan.Mode.String(), cache: cacheState(hit)}
	if req.Options.CountOnly {
		s.respondCount(w, r, plan, meta)
		return
	}
	s.stream(w, r, plan.AnswersContext, meta, req.Limit)
}

// respondCount answers a count-only evaluation: certified single-branch
// plans count from the Theorem 12 counting pass without enumerating a
// single answer; everything else (multi-branch unions, naive plans)
// enumerates under the request context and counts server-side. Either way
// the client gets one JSON object and no stream.
func (s *Server) respondCount(w http.ResponseWriter, r *http.Request, plan *ucq.Plan, meta streamMeta) {
	n, exact := plan.CountExact()
	method := "count-answers"
	if !exact {
		method = "enumerate"
		n = 0
		it := plan.AnswersContext(r.Context())
		defer ucq.CloseAnswers(it)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		if r.Context().Err() != nil {
			s.stats.requestsCancelled.Add(1)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ucq-Mode", plan.Mode.String())
	w.Header().Set("X-Ucq-Cache", meta.cache)
	if meta.bind != "" {
		w.Header().Set("X-Ucq-Bind", meta.bind)
		w.Header().Set("X-Ucq-Dataset-Version", fmt.Sprint(meta.dsVersion))
	}
	s.stats.streamsCompleted.Add(1)
	_ = json.NewEncoder(w).Encode(CountResponse{
		Count:          n,
		Mode:           plan.Mode.String(),
		Method:         method,
		Cache:          meta.cache,
		Dataset:        meta.dataset,
		DatasetVersion: meta.dsVersion,
		Bind:           meta.bind,
	})
}

// cacheState renders a hit bool as the wire's "hit"/"miss".
func cacheState(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// planError maps planning failures onto HTTP statuses: invalid option
// combinations (typed OptionsError) and schema mismatches are the
// client's fault.
func (s *Server) planError(w http.ResponseWriter, err error) {
	var oe *ucq.OptionsError
	if errors.As(err, &oe) {
		s.httpError(w, http.StatusBadRequest, "invalid options: %s: %s", oe.Field, oe.Reason)
		return
	}
	s.httpError(w, http.StatusBadRequest, "planning: %v", err)
}

// streamMeta describes a stream to its client: the answer shape and engine
// mode plus the cache/dataset provenance reported in the headers and the
// trailer. bind and dataset stay zero on the legacy inline-instance path,
// keeping that wire format byte-identical.
type streamMeta struct {
	arity     int    // answer tuple width
	mode      string // engine mode ("constant-delay" or "naive")
	cache     string // plan cache: "hit" or "miss"
	bind      string // bind cache: "hit", "miss", or "" (inline bind)
	dataset   string
	dsVersion uint64
}

// stream drains an answer iterator into the response in the encoding the
// request's Accept header negotiated — NDJSON lines or binary columnar
// frames, one shared loop either way. The first answer is flushed
// immediately — on certified plans it reaches the client while
// enumeration of the remaining answers is still running — and later
// answers are flushed every cfg.FlushEvery answers through the stream's
// buffered writer. The stream ends with a Trailer (object or frame). A
// stream whose iterator ends with an error (ucq.AnswersErr) fails loudly:
// its trailer has done:false and the error, and /stats counts an error
// instead of a completed stream.
//
// The stream holds an admission slot for its whole life; overload sheds
// here with 429 instead of stacking enumerations, and open — which starts
// the enumeration — runs only once the slot is held. The enumeration runs
// under the request context: when the client disconnects mid-stream (or
// the server shuts down), the context cancels the work-stealing executor
// behind a parallel plan and every worker is released within one batch;
// the request is then counted as cancelled and no trailer is written.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, open func(context.Context) ucq.Answers, meta streamMeta, limit int) {
	if !s.admitStream(w, r) {
		return
	}
	defer s.admission.release()

	media := negotiateEncoding(r.Header.Get("Accept"))
	enc, err := newAnswerEncoder(w, media, meta.arity)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", enc.contentType())
	w.Header().Set("X-Ucq-Mode", meta.mode)
	w.Header().Set("X-Ucq-Cache", meta.cache)
	if meta.bind != "" {
		w.Header().Set("X-Ucq-Bind", meta.bind)
		w.Header().Set("X-Ucq-Dataset-Version", fmt.Sprint(meta.dsVersion))
	}
	w.WriteHeader(http.StatusOK)

	it := open(r.Context())
	defer ucq.CloseAnswers(it)

	start := time.Now()
	prev := start
	var firstAnswer, maxDelay time.Duration
	count := 0
	disconnected := false
	for {
		// Certified streams end on their own within one batch of
		// cancellation; this per-answer check covers the rest — naive plans
		// hand out a materialized stream that no longer looks at the
		// context — so a server shutdown stops even a stream whose client is
		// still happily reading.
		if r.Context().Err() != nil {
			break
		}
		t, ok := it.Next()
		if !ok {
			break
		}
		now := time.Now()
		if count == 0 {
			firstAnswer = now.Sub(start)
		} else if d := now.Sub(prev); d > maxDelay {
			maxDelay = d
		}
		prev = now
		if err := enc.appendTuple(t); err != nil {
			// Client went away; stop enumerating, but keep the counters
			// honest about the answers that already left the socket.
			disconnected = true
			break
		}
		count++
		if count == 1 || count%s.cfg.FlushEvery == 0 {
			if err := enc.flush(); err != nil {
				disconnected = true
				break
			}
		}
		if limit > 0 && count >= limit {
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
	tr := Trailer{
		Done:           true,
		Count:          count,
		Mode:           meta.mode,
		Cache:          meta.cache,
		Dataset:        meta.dataset,
		DatasetVersion: meta.dsVersion,
		Bind:           meta.bind,
	}
	if err := ucq.AnswersErr(it); err != nil {
		// The enumeration died mid-stream: no in-tree producer fails this
		// way today, but any Answers may report an error through Err, and
		// the answers already sent are then an arbitrary prefix. The status
		// line is long gone, so honesty lives in the trailer — done stays
		// false and the error rides along instead.
		s.stats.errors.Add(1)
		tr.Done = false
		tr.Error = fmt.Sprintf("enumeration failed after %d answers: %v", count, err)
	} else {
		s.stats.streamsCompleted.Add(1)
	}
	_ = enc.trailer(tr)
	s.endStream(enc, media, count)
}

// endStream flushes a stream's already-encoded terminal record (trailer or
// error) after counting the response in the wire stats. Callers bump their
// outcome counter (streamsCompleted, errors) before encoding the record:
// state first, then the bytes that announce it, so a client that has read
// done:true never sees /stats that disagree.
func (s *Server) endStream(enc answerEncoder, media string, rows int) {
	s.stats.recordWire(media, rows, enc.bytesOut())
	_ = enc.flush()
}
