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
// GET /stats exposes plan- and bind-cache hit/miss/eviction counters,
// per-dataset gauges, answers streamed, and per-request delay percentiles;
// GET /healthz is a liveness probe.
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
	"repro/internal/database"
	"repro/internal/enumeration"
	"repro/internal/storage"
	"repro/internal/vcache"
	"repro/internal/wire"
)

// The server's fixed settings.
const (
	// planCacheSize caps the prepared-plan cache (entries).
	planCacheSize = 128
	// flushEvery flushes a stream after this many answers beyond the
	// first; the first answer always flushes immediately.
	flushEvery = 256
	// maxBodyBytes caps a request body.
	maxBodyBytes = 64 << 20
	// queueDeadline is the longest a streaming request or subscription
	// waits for an admission slot before it is shed with 429.
	queueDeadline = time.Second
	// maxSubscriptions caps concurrent /subscribe streams. It is a gate of
	// its own: a subscription lives until the client hangs up, so sharing
	// the query gate would let a handful of subscribers starve every
	// one-shot query.
	maxSubscriptions = 64
)

// Server is the streaming UCQ evaluation service. Create with New or Open;
// the zero value is not usable.
type Server struct {
	// cache holds prepared queries keyed on (preparation mode, schema,
	// canonical query): the instance-independent half of planning —
	// redundancy removal and the Theorem 12 certificate search — which
	// must not be repeated per request. Concurrent misses on one key
	// coalesce onto one preparation, and the key is content, so nothing
	// expires by time.
	cache   *vcache.Cache[*ucq.PreparedQuery]
	catalog *ucq.Catalog
	stats   Stats

	// store is non-nil when the server was built by Open with a data
	// directory: the catalog journals through it and /stats surfaces its
	// gauges.
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

// New builds a Server with an in-memory dataset catalog.
func New() *Server {
	return newServer(ucq.NewCatalog())
}

// newServer builds a Server around a catalog. Streams get 2×GOMAXPROCS
// slots: a stream enumerates on its request's goroutine, so it uses one
// CPU at most, and enumeration is CPU-bound — more slots would only queue
// inside the process.
func newServer(cat *ucq.Catalog) *Server {
	return &Server{
		admission:    newAdmission(2*runtime.GOMAXPROCS(0), queueDeadline),
		subAdmission: newAdmission(maxSubscriptions, queueDeadline),
		cache:        vcache.New[*ucq.PreparedQuery](planCacheSize),
		catalog:      cat,
		dsQueries:    make(map[string]int64),
	}
}

// Open builds a Server whose dataset catalog is durable under dataDir:
// dataset mutations are journaled there before they are acknowledged, and
// Open replays the journal so a restarted process serves every dataset at
// the version its clients last saw. Close the server to release the store.
// With an empty dataDir, Open is New without the error path.
func Open(dataDir string) (*Server, error) {
	if dataDir == "" {
		return New(), nil
	}
	cat, st, err := ucq.OpenCatalog(dataDir)
	if err != nil {
		return nil, err
	}
	s := newServer(cat)
	s.store = st
	return s, nil
}

// Close releases the durable store behind a Server built by Open with a
// data directory. A no-op on servers without durable storage.
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
	// Live subscription: initial answer set, then incremental deltas per
	// append, maintained from the dataset's append log (subscribe.go).
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
		BindCache:         s.catalog.BindCacheStats(),
		Datasets:          gauges,
		Delays:            s.stats.delays(),
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
			MaxStreams:          cap(s.admission.sem),
			SubscriptionsActive: s.subAdmission.active.Load(),
			SubscriptionsShed:   s.subAdmission.shed.Load(),
			MaxSubscriptions:    cap(s.subAdmission.sem),
		},
		Subscriptions: SubscriptionsSnapshot{
			Active:           s.subAdmission.active.Load(),
			Started:          s.stats.subsStarted.Load(),
			DeltasEvaluated:  s.stats.deltasEvaluated.Load(),
			AnswersPushed:    s.stats.deltaAnswersPushed.Load(),
			Resyncs:          s.stats.subsResyncs.Load(),
			MaxSubscriptions: cap(s.subAdmission.sem),
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
// the inline-instance and dataset endpoints: the parsed union and the
// normalized mode; the inline relations come back in rels, checked but not
// yet an instance. On failure it writes the error response and returns
// ok = false.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request, rels *wire.Relations) (req QueryRequest, u *ucq.UCQ, mode string, ok bool) {
	if !s.decodeBody(w, r, func(d *wire.Body) { decodeQueryRequest(d, &req, rels) }) {
		return req, nil, "", false
	}
	u, err := ucq.Parse(req.Query)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "parsing query: %v", err)
		return req, nil, "", false
	}
	mode = req.Options.Mode
	if mode == "" {
		mode = "auto"
	}
	if mode != "auto" && mode != "naive" {
		s.httpError(w, http.StatusBadRequest, "options.mode must be \"auto\" or \"naive\", got %q", mode)
		return req, nil, "", false
	}
	if req.Limit < 0 {
		s.httpError(w, http.StatusBadRequest, "limit must be ≥ 0, got %d", req.Limit)
		return req, nil, "", false
	}
	return req, u, mode, true
}

// prepared serves the instance-independent preparation from the LRU cache,
// keyed by mode, schema and canonical query.
func (s *Server) prepared(mode string, u *ucq.UCQ) (*ucq.PreparedQuery, bool, error) {
	return s.cache.Get(planKey(mode, u), func() (*ucq.PreparedQuery, error) {
		s.stats.plansPrepared.Add(1)
		return ucq.Prepare(u, &ucq.PlanOptions{ForceNaive: mode == "naive"})
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)

	var rels wire.Relations
	req, u, mode, ok := s.decodeQuery(w, r, &rels)
	if !ok {
		return
	}
	pq, hit, err := s.prepared(mode, u)
	if err != nil {
		s.planError(w, err)
		return
	}

	inst, err := rels.Instance()
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Per-instance preprocessing. The request context rides along: a
	// client disconnect aborts a still-running bind between extensions and,
	// below, ends the enumeration itself within one batch instead of
	// enumerating to completion for nobody.
	plan, err := pq.BindContext(r.Context(), inst)
	if err != nil {
		if r.Context().Err() != nil {
			s.stats.requestsCancelled.Add(1)
			return
		}
		s.planError(w, err)
		return
	}

	meta := streamMeta{arity: plan.Query.Arity(), mode: plan.Mode.String(), cache: cacheState(hit)}
	if req.Options.CountOnly {
		s.respondCount(w, r, plan, meta, req.Limit)
		return
	}
	s.stream(w, r, func(ctx context.Context) answerBatches { return plan.AnswersContext(ctx) }, meta, req.Limit)
}

// respondCount answers a count-only evaluation: certified plans whose
// members probe no earlier member (Plan.CountExact) count from the Theorem
// 12 counting passes without enumerating a single answer; everything else
// (unions that probe, naive plans)
// enumerates under the request context and counts server-side. A limit
// caps the count as it caps a stream: the counting-pass figure is cut to
// it, and the enumerating count stops there. Either way the client gets
// one JSON object and no stream.
func (s *Server) respondCount(w http.ResponseWriter, r *http.Request, plan *ucq.Plan, meta streamMeta, limit int) {
	n, exact := plan.CountExact()
	method := "count-answers"
	if !exact {
		method = "enumerate"
		n = 0
		it := plan.AnswersContext(r.Context())
		defer it.Close()
		for limit == 0 || n < int64(limit) {
			_, k := it.Batch()
			if k == 0 {
				break
			}
			n += int64(k)
		}
		if r.Context().Err() != nil {
			s.stats.requestsCancelled.Add(1)
			return
		}
	}
	if limit > 0 {
		n = min(n, int64(limit))
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

// planError reports a planning failure — a schema mismatch, typically —
// as the client's fault.
func (s *Server) planError(w http.ResponseWriter, err error) {
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

// answerBatches is the stream the drain loop reads, as every plan stream
// (*enumeration.Union) is; one that can fail also has an Err method.
type answerBatches interface {
	Batch() ([]database.Value, int)
	Close()
}

// errClientGone marks a failed write: the client went away, no trailer.
var errClientGone = errors.New("server: client disconnected")

// stream drains an answer stream into the response in the encoding the
// request's Accept header negotiated — NDJSON lines or binary columnar
// frames, one shared drain loop either way. The first answer is flushed
// alone — on certified plans it reaches the client while enumeration of
// the remaining answers is still running — and later answers every
// flushEvery answers through the stream's buffered writer. The stream
// ends with a Trailer (object or frame). A stream that ends with an error
// (enumeration.IterErr) fails loudly: its trailer has done:false and the
// error, and /stats counts an error instead of a completed stream.
//
// The stream holds an admission slot for its whole life; overload sheds
// here with 429 instead of stacking enumerations, and open — which starts
// the enumeration — runs only once the slot is held. The enumeration runs
// under the request context, which the drain loop also checks once per
// batch: when the client disconnects mid-stream (or the server shuts
// down), the stream ends within one batch; the request is then counted as
// cancelled and no trailer is written.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, open func(context.Context) answerBatches, meta streamMeta, limit int) {
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
	defer it.Close()
	count := 0
	firstAnswer, maxDelay, err := drain(r.Context(), it, enc, &count, limit)

	s.stats.answersStreamed.Add(int64(count))
	s.stats.RecordTiming(firstAnswer, maxDelay)
	if err != nil || r.Context().Err() != nil {
		// Client went away (or the server is shutting down): keep the
		// counters honest about the answers that already left the socket.
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
	if err := enumeration.IterErr(it); err != nil {
		// The enumeration died mid-stream: no in-tree producer fails this
		// way today, but any stream may report an error through Err, and
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

// drain is the server's one answer loop, for query streams and a
// subscription's full sets: it moves it into enc batch by batch, at most
// limit answers (0: all), advancing the response's running count sent.
// Per batch it checks ctx once and reads the clock once: first is the time
// to the first batch (one answer on a plan stream), maxGap the longest gap
// between batches. It stops early with ctx's error or errClientGone.
func drain(ctx context.Context, it answerBatches, enc answerEncoder, sent *int, limit int) (first, maxGap time.Duration, err error) {
	start := time.Now()
	prev, count := start, 0
	for limit == 0 || count < limit {
		if err = ctx.Err(); err != nil {
			break
		}
		vals, n := it.Batch()
		if n == 0 {
			break
		}
		now := time.Now()
		if count == 0 {
			first = now.Sub(start)
		} else {
			maxGap = max(maxGap, now.Sub(prev))
		}
		prev = now
		if limit > 0 {
			n = min(n, limit-count)
		}
		if err = send(enc, vals, n, sent); err != nil {
			break
		}
		count += n
	}
	if count == 0 {
		first = time.Since(start)
	}
	return first, maxGap, err
}

// send encodes n answers and flushes when the running count sent passes
// its first answer or a multiple of flushEvery, however the answers are
// batched. A failed write returns errClientGone.
func send(enc answerEncoder, vals []database.Value, n int, sent *int) error {
	if enc.appendBatch(vals, n) != nil {
		return errClientGone
	}
	before := *sent
	*sent += n
	if (before == 0 || before/flushEvery != *sent/flushEvery) && enc.flush() != nil {
		return errClientGone
	}
	return nil
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
