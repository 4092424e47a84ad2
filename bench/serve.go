package main

// The serve-* workloads: closed-loop HTTP clients against a ucq-serve child
// started with -addr (and -data-dir for serve-mixed) and nothing else, so
// every server default — plan cache size, flush interval, admission gate,
// Auto execution — is what is measured.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"

	ucq "repro"
)

// connections is the client count of every serve-* workload: one per CPU of
// the reference box, so the closed loops never queue at the admission gate.
const connections = 2

// request is one query the clients may send, with the oracle's verdict.
type request struct {
	url  string
	body []byte
	want expect
}

// serveEngine is a running server child plus the client state of one
// workload.
type serveEngine struct {
	workload string
	seed     int64
	sz       sizes
	srv      *serverChild
	ctl      *http.Client   // dataset writes, /stats
	conns    []*http.Client // one keep-alive connection each
	accept   string
	// requests holds the single query of serve-stream-*, the pool of
	// serve-short; picks are the per-connection random streams over it.
	requests []request
	picks    []*rand.Rand
	// joinRels is the serve-stream instance, kept for the in-process probe.
	joinRels rows
	pool     []poolQuery
	live     *liveState

	// captured is one response body of the traced window, for the decode
	// probe; capture arms the next op to fill it.
	captureMu sync.Mutex
	capture   bool
	captured  []byte
	mediaType string
}

func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// setupServe generates the inputs, evaluates the oracle, starts the server
// child, registers what the workload needs and runs the warm-up ops.
func setupServe(ctx context.Context, rc runConfig) (_ *serveEngine, err error) {
	e := &serveEngine{workload: rc.Workload, seed: rc.Seed, sz: sizesFor(rc.Small), ctl: newConn()}
	for i := 0; i < connections; i++ {
		e.conns = append(e.conns, newConn())
		e.picks = append(e.picks, subRand(rc.Seed, purposeClient+int64(i)))
	}
	rng := subRand(rc.Seed, purposeInstance)

	// Inputs and oracle first: a generator or oracle failure needs no child.
	switch rc.Workload {
	case "serve-stream-ndjson", "serve-stream-binary":
		if rc.Workload == "serve-stream-binary" {
			e.accept = ucq.MediaTypeBinary
		}
		e.joinRels = keyedJoin(rng, e.sz.joinKeys, e.sz.joinLeft, e.sz.joinRight)
		want, err := oracle(joinQuery, e.joinRels)
		if err != nil {
			return nil, err
		}
		e.requests = []request{{url: "/datasets/join/query", body: mustJSON(map[string]any{"query": joinQuery}), want: want}}
	case "serve-short":
		e.pool = queryPool(subRand(rc.Seed, purposePool), e.sz.poolRenames, e.sz.poolRows)
		for _, q := range e.pool {
			want, err := oracle(q.Query, q.Rels)
			if err != nil {
				return nil, err
			}
			e.requests = append(e.requests, request{
				url:  "/query",
				body: mustJSON(map[string]any{"query": q.Query, "relations": q.Rels}),
				want: want,
			})
		}
	case "serve-mixed":
		if e.live, err = newLiveState(rng, e.sz); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%q is not a server workload", rc.Workload)
	}

	if e.srv, err = startServer(ctx, rc.Workload == "serve-mixed"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			e.stop()
		}
	}()

	switch rc.Workload {
	case "serve-stream-ndjson", "serve-stream-binary":
		if _, err := e.putDataset("join", e.joinRels, false); err != nil {
			return nil, err
		}
		for _, c := range e.conns {
			for i := 0; i < 2; i++ {
				if s := e.queryOp(c, e.requests[0], 0, time.Now(), nil); !s.OK {
					return nil, fmt.Errorf("%s: warm-up op disagrees with the oracle (%d answers, want %d)", rc.Workload, s.Answers, e.requests[0].want.Count)
				}
			}
		}
	case "serve-short":
		// One pass over the pool fills the plan cache to its steady state
		// and checks every query once.
		for i, r := range e.requests {
			if s := e.queryOp(e.conns[i%connections], r, 0, time.Now(), nil); !s.OK {
				return nil, fmt.Errorf("serve-short: warm-up query %d (%s) disagrees with the oracle (%d answers, want %d)", i, e.pool[i].Shape, s.Answers, r.want.Count)
			}
		}
	case "serve-mixed":
		if err := e.setupMixed(ctx); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and integers always encode
	}
	return data
}

// putDataset registers (or appends to) a dataset and returns its version.
func (e *serveEngine) putDataset(name string, rels rows, isAppend bool) (uint64, error) {
	body := map[string]any{"relations": rels}
	if isAppend {
		body["append"] = true
	}
	req, err := http.NewRequest(http.MethodPut, e.srv.base+"/datasets/"+name, bytes.NewReader(mustJSON(body)))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.ctl.Do(req)
	if err != nil {
		return 0, fmt.Errorf("PUT /datasets/%s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("PUT /datasets/%s: status %d: %s", name, resp.StatusCode, msg)
	}
	var info struct {
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return 0, fmt.Errorf("PUT /datasets/%s: decoding reply: %w", name, err)
	}
	return info.Version, nil
}

// countReader counts the bytes read through it.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// queryOp sends one query and decodes and checks the whole answer stream.
// An op fails on a transport error, a status other than 200 (a shed 429
// included), a missing or done:false trailer, a decode error, or answers
// that differ from the oracle's in count or checksum.
func (e *serveEngine) queryOp(c *http.Client, r request, opID int, open time.Time, rec *recorder) opSample {
	start := time.Now()
	root := rec.beginAt("op", -1, opID, start)
	defer rec.end(root)
	fail := func() opSample {
		now := time.Since(open)
		return opSample{Start: start.Sub(open), First: now, End: now}
	}

	req, err := http.NewRequest(http.MethodPost, e.srv.base+r.url, bytes.NewReader(r.body))
	if err != nil {
		return fail()
	}
	req.Header.Set("Content-Type", "application/json")
	if e.accept != "" {
		req.Header.Set("Accept", e.accept)
	}
	var wrote, firstByte time.Time
	if rec != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { firstByte = time.Now() },
		}))
	}
	resp, err := c.Do(req)
	if err != nil {
		return fail()
	}
	defer resp.Body.Close()
	headers := time.Now()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fail()
	}

	body := &countReader{r: resp.Body}
	var tee *bytes.Buffer
	if rec != nil && e.armCapture() {
		tee = new(bytes.Buffer)
		body.r = io.TeeReader(resp.Body, tee)
	}
	want := func(*ucq.StreamTrailer) expect { return r.want }
	if e.live != nil {
		want = func(tr *ucq.StreamTrailer) expect { return e.live.wantAt(tr.DatasetVersion) }
	}
	got, first, ok := decodeAndCheck(body, resp.Header.Get("Content-Type"), want)
	end := time.Now()
	s := opSample{
		Start: start.Sub(open), First: first.Sub(open), End: end.Sub(open),
		Answers: got.Count, OK: ok, Engine: e.serverStat(), Bytes: body.n,
	}
	if rec != nil {
		if wrote.IsZero() || firstByte.IsZero() {
			wrote, firstByte = start, headers
		}
		s.TTFB = firstByte.Sub(wrote)
		s.HeadersToFirst = first.Sub(headers)
		rec.endAt(rec.beginAt("server.request", root, opID, start), headers)
		rec.endAt(rec.beginAt("wire.first_answer", root, opID, headers), first)
		rec.endAt(rec.beginAt("wire.stream", root, opID, first), end)
		if tee != nil && s.OK {
			e.captureMu.Lock()
			e.captured, e.mediaType = tee.Bytes(), resp.Header.Get("Content-Type")
			e.captureMu.Unlock()
		}
	}
	return s
}

// decodeAndCheck reads one answer stream to its trailer and checks it
// against the oracle: the stream must decode, end in a done:true trailer
// whose count matches the answers seen, and the answers must have the
// expected count and checksum. first is when the first answer was decoded
// (the end of the stream when there was none).
func decodeAndCheck(body io.Reader, contentType string, want func(*ucq.StreamTrailer) expect) (got expect, first time.Time, ok bool) {
	trailer, err := ucq.DecodeAnswerStream(body, contentType, func(t ucq.Tuple) bool {
		if got.Count == 0 {
			first = time.Now()
		}
		got.add(t)
		return true
	})
	if got.Count == 0 {
		first = time.Now()
	}
	ok = err == nil && trailer != nil && trailer.Done && trailer.Error == "" &&
		trailer.Count == got.Count && got == want(trailer)
	return got, first, ok
}

// armCapture reports whether this op should keep its response body; it
// says yes once per arming.
func (e *serveEngine) armCapture() bool {
	e.captureMu.Lock()
	defer e.captureMu.Unlock()
	armed := e.capture
	e.capture = false
	return armed
}

// clients returns one closed-loop op function per connection.
func (e *serveEngine) clients() []opFunc {
	if e.live != nil {
		// Connection 1 writes and reads; connection 2 is the subscriber,
		// which runs for the engine's whole life (see setupMixed).
		return []opFunc{e.mixedOp}
	}
	var fns []opFunc
	for i, c := range e.conns {
		fns = append(fns, func(seq int, open time.Time, rec *recorder) opSample {
			r := e.requests[e.picks[i].Intn(len(e.requests))]
			return e.queryOp(c, r, i*1_000_000+seq, open, rec)
		})
	}
	return fns
}

// serverStat reads the server child's CPU clock and resident set.
func (e *serveEngine) serverStat() procStat { return readProcStat(e.srv.cmd.Process.Pid) }

// measure runs the windows against the server and, after a traced one, the
// /stats arithmetic and the in-process probes.
func (e *serveEngine) measure(w windows) (*windowReport, error) {
	rep := &windowReport{}
	clients := e.clients()

	if w.Untraced > 0 {
		cpu0 := e.serverStat().cpu()
		samples := runWindow(w.Untraced, clients, nil)
		t := totalsOf(samples)
		rep.Untraced = &t
		rep.EndToEnd = endToEnd(samples, w.Untraced, len(clients), cpu0)
	}
	if w.Traced > 0 {
		if e.live != nil {
			e.live.record(true)
		}
		e.captureMu.Lock()
		e.capture = true
		e.captureMu.Unlock()
		st0, err := fetchStats(e.ctl, e.srv.base)
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		srv0 := e.serverStat()
		self0 := selfCPU()
		samples := runWindow(w.Traced, clients, rec)
		srv1 := e.serverStat()
		user, sys, self := srv1.User-srv0.User, srv1.Sys-srv0.Sys, selfCPU()-self0
		if e.live != nil {
			if err := e.live.waitCaughtUp(5 * time.Second); err != nil {
				return nil, err
			}
			e.live.record(false)
		}
		st1, err := fetchStats(e.ctl, e.srv.base)
		if err != nil {
			return nil, err
		}
		t := totalsOf(samples)
		rep.Traced = &t
		rep.Spans = rec.finished()
		m := harnessMetrics(samples, w.Traced, len(clients), rep.EndToEnd["answers_per_s"])
		rep.PerLayer = m
		answers := float64(t.Answers)
		m["server.cpu_user_us_per_answer"] = per(us(user), answers)
		m["server.cpu_sys_us_per_answer"] = per(us(sys), answers)
		m["client.cpu_us_per_answer"] = per(us(self), answers)
		e.wireMetrics(m, samples)
		statsMetrics(m, st0, st1)
		if e.live != nil {
			e.live.metrics(m, st0, st1)
		}
		if err := e.probes(m); err != nil {
			return nil, err
		}
	}
	if e.live != nil {
		rep.Faults = e.live.faults()
	}
	return rep, nil
}

// wireMetrics are the per-op client-side figures of the traced window.
func (e *serveEngine) wireMetrics(m metrics, samples []opSample) {
	ok := verified(samples)
	var bytesTotal, answers int64
	for _, s := range ok {
		bytesTotal += s.Bytes
		answers += int64(s.Answers)
	}
	m["wire.bytes_per_answer"] = per(float64(bytesTotal), float64(answers))
	m["stream.first_to_last_ns_per_answer"] = percentile(valuesOf(ok, func(s opSample) float64 {
		return per(float64(s.End-s.First), float64(s.Answers))
	}), 50)
	m["server.ttfb_ms_p50"] = percentile(valuesOf(ok, func(s opSample) float64 { return ms(s.TTFB) }), 50)
	m["server.headers_to_first_ms_p50"] = percentile(valuesOf(ok, func(s opSample) float64 { return ms(s.HeadersToFirst) }), 50)
}

// statsMetrics derives the figures only the server can count from the
// difference of two /stats snapshots taken around the traced window.
func statsMetrics(m metrics, a, b serverStats) {
	hits, misses := b.Cache.Hits-a.Cache.Hits, b.Cache.Misses-a.Cache.Misses
	m["server.plan_cache_hit_ratio"] = ratio(hits, misses)
	m["server.plans_prepared_per_op"] = per(float64(b.PlansPrepared-a.PlansPrepared), float64(hits+misses))
	m["server.bind_cache_hit_ratio"] = ratio(b.BindCache.Hits-a.BindCache.Hits, b.BindCache.Misses-a.BindCache.Misses)
	// The server's own first-answer clock starts after bind, so this is the
	// enumeration's share; the client's view minus TTFB minus this is
	// transport. It is a percentile over the server's last 1024 requests.
	m["server.first_answer_ms_p50_internal"] = ms(time.Duration(b.Delays.FirstAnswerP50))
	var decisions float64
	for kind := range b.DecisionModes {
		decisions += float64(b.DecisionModes[kind] - a.DecisionModes[kind])
	}
	for _, kind := range []string{"sequential", "parallel", "sharded"} {
		m["cost.decision_"+kind+"_share"] = per(float64(b.DecisionModes[kind]-a.DecisionModes[kind]), decisions)
	}
	m["server.streams_shed"] = float64(b.Wire.StreamsShed - a.Wire.StreamsShed)
	m["server.errors"] = float64(b.Errors - a.Errors)
	m["server.requests_cancelled"] = float64(b.RequestsCancelled - a.RequestsCancelled)
}

// probes are in-process measurements of single layers on the workload's own
// inputs, taken after the traced window with the server idle.
func (e *serveEngine) probes(m metrics) error {
	switch e.workload {
	case "serve-stream-ndjson", "serve-stream-binary":
		return e.streamProbes(m)
	case "serve-short":
		return e.planProbes(m)
	default:
		return e.live.probes(m, e.seed, e.sz)
	}
}

// streamProbes times the client-side decoder on a captured response and
// the enumeration alone, in this process, on the server's query and
// instance. Server CPU per answer minus the latter is what encoding and the
// socket cost — up to the execution mode, which the server's cost model
// picks and an in-process Bind with no options does not.
func (e *serveEngine) streamProbes(m metrics) error {
	e.captureMu.Lock()
	captured, media := e.captured, e.mediaType
	e.captureMu.Unlock()
	if captured != nil {
		ns, err := medianOf(probeReps, func() (float64, error) {
			n := 0
			t0 := time.Now()
			_, err := ucq.DecodeAnswerStream(bytes.NewReader(captured), media, func(ucq.Tuple) bool { n++; return true })
			return per(float64(time.Since(t0)), float64(n)), err
		})
		if err != nil {
			return fmt.Errorf("decode probe: %w", err)
		}
		m["stream.decode_ns_per_answer"] = ns
	}

	u, err := ucq.Parse(joinQuery)
	if err != nil {
		return err
	}
	pq, err := ucq.Prepare(u, nil)
	if err != nil {
		return err
	}
	inst, err := ucq.InstanceFromRows(e.joinRels)
	if err != nil {
		return err
	}
	plan, err := pq.Bind(inst)
	if err != nil {
		return err
	}
	cpuPerAnswer, err := medianOf(probeReps, func() (float64, error) {
		cpu0 := selfCPU()
		n, err := drainCount(plan)
		return per(us(selfCPU()-cpu0), float64(n)), err
	})
	if err != nil {
		return fmt.Errorf("drain probe: %w", err)
	}
	server := m["server.cpu_user_us_per_answer"] + m["server.cpu_sys_us_per_answer"]
	m["server.encode_socket_us_per_answer"] = server - cpuPerAnswer
	return nil
}

// planProbes times Parse and Prepare over the whole query pool: the two
// calls a plan-cache miss costs the server.
func (e *serveEngine) planProbes(m metrics) error {
	var parse, prepare []float64
	for _, q := range e.pool {
		t0 := time.Now()
		u, err := ucq.Parse(q.Query)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := ucq.Prepare(u, nil); err != nil {
			return err
		}
		parse = append(parse, us(t1.Sub(t0)))
		prepare = append(prepare, us(time.Since(t1)))
	}
	m["cq.parse_us_p50"] = percentile(parse, 50)
	m["core.prepare_us_p50"] = percentile(prepare, 50)
	return nil
}

// stop ends the subscription and the server child.
func (e *serveEngine) stop() {
	if e.live != nil {
		e.live.close()
	}
	for _, c := range append(e.conns, e.ctl) {
		c.CloseIdleConnections()
	}
	e.srv.stop(5 * time.Second)
}
