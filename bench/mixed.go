package main

// serve-mixed: writes beside reads on a durable server. Connection 1 loops
// {durable append to dataset "live"; full dataset query}, connection 2
// holds a /subscribe stream. Every query follows a version bump, so WAL
// fsync, bind-cache invalidation, delta evaluation and re-bind are all on
// the path of an op.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	ucq "repro"
)

// versionInfo is what the benchmark knows about one dataset version before
// the server has even seen it: the full answer set and what the version's
// append added, both in closed form from the generator.
type versionInfo struct {
	full  expect
	added expect
	sent  time.Time // when the append that made this version was sent
}

// liveState is shared by the writer/reader connection and the subscriber.
type liveState struct {
	mu       sync.Mutex
	caughtUp *sync.Cond
	data     *liveDataset
	versions map[uint64]*versionInfo
	head     uint64 // last acknowledged version
	seen     uint64 // last version marker the subscriber received
	cancel   context.CancelFunc
	subDone  chan struct{}
	problems []string

	// Traced-window recordings.
	recording bool
	appendAck []float64 // ms, append sent → acknowledged
	push      []float64 // ms, append sent → version marker at the subscriber
	appends   int
}

func newLiveState(rng *rand.Rand, sz sizes) (*liveState, error) {
	l := &liveState{data: newLiveDataset(rng, sz), versions: map[uint64]*versionInfo{}, subDone: make(chan struct{})}
	l.caughtUp = sync.NewCond(&l.mu)
	full, err := oracle(joinQuery, l.data.base)
	if err != nil {
		return nil, err
	}
	l.versions[1] = &versionInfo{full: full}
	return l, nil
}

// wantAt is the expected full answer set at a dataset version; a version
// the writer never made matches nothing.
func (l *liveState) wantAt(version uint64) expect {
	l.mu.Lock()
	defer l.mu.Unlock()
	if v, ok := l.versions[version]; ok {
		return v.full
	}
	return expect{Count: -1}
}

func (l *liveState) fault(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.problems) < 8 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

func (l *liveState) faults() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.problems...)
}

func (l *liveState) record(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recording = on
}

// setupMixed registers the dataset, opens the subscription and runs warm-up
// iterations, the last of which is checked against a fresh naive
// evaluation so the closed form itself is verified once per set-up.
func (e *serveEngine) setupMixed(ctx context.Context) error {
	l := e.live
	if v, err := e.putDataset("live", l.data.base, false); err != nil || v != 1 {
		return fmt.Errorf("registering live dataset: version %d, %v", v, err)
	}
	l.head = 1
	subCtx, cancel := context.WithCancel(ctx)
	l.cancel = cancel
	go e.subscribe(subCtx)
	if err := l.waitCaughtUp(10 * time.Second); err != nil {
		return err
	}
	all := rows{"R": append([][]int64(nil), l.data.base["R"]...), "S": l.data.base["S"]}
	for i := 0; i < 3; i++ {
		batch, ok := e.appendOnce()
		if !ok {
			return fmt.Errorf("serve-mixed: warm-up append failed: %v", l.faults())
		}
		all["R"] = append(all["R"], batch["R"]...)
		if s := e.queryOp(e.conns[0], e.liveRequest(), 0, time.Now(), nil); !s.OK {
			return fmt.Errorf("serve-mixed: warm-up query disagrees with the closed form (%d answers)", s.Answers)
		}
	}
	want, err := oracle(joinQuery, all)
	if err != nil {
		return err
	}
	if got := l.wantAt(l.head); got != want {
		return fmt.Errorf("serve-mixed: closed form %+v disagrees with the naive evaluator %+v at version %d", got, want, l.head)
	}
	if err := l.waitCaughtUp(10 * time.Second); err != nil {
		return err
	}
	if f := l.faults(); len(f) > 0 {
		return fmt.Errorf("serve-mixed: subscription faults during warm-up: %v", f)
	}
	return nil
}

func (e *serveEngine) liveRequest() request {
	return request{url: "/datasets/live/query", body: mustJSON(map[string]any{"query": joinQuery})}
}

// appendOnce sends the next append and waits for its acknowledgement. The
// version's expectations are published before the request leaves, so the
// subscriber can never see a marker it has no entry for.
func (e *serveEngine) appendOnce() (rows, bool) {
	l := e.live
	l.mu.Lock()
	batch, added := l.data.nextAppend()
	next := l.head + 1
	delta := expectRows(added)
	sent := time.Now()
	l.versions[next] = &versionInfo{full: l.versions[l.head].full.plus(delta), added: delta, sent: sent}
	l.mu.Unlock()

	got, err := e.putDataset("live", batch, true)
	ack := time.Since(sent)
	if err != nil || got != next {
		l.fault("append to version %d: got version %d, %v", next, got, err)
		return nil, false
	}
	l.mu.Lock()
	l.head = next
	if l.recording {
		l.appendAck = append(l.appendAck, ms(ack))
		l.appends++
	}
	l.mu.Unlock()
	return batch, true
}

// mixedOp is one iteration of connection 1: an acknowledged append, then
// the op proper — a full query of the version that append made.
func (e *serveEngine) mixedOp(seq int, open time.Time, rec *recorder) opSample {
	if _, ok := e.appendOnce(); !ok {
		now := time.Since(open)
		return opSample{Start: now, First: now, End: now}
	}
	return e.queryOp(e.conns[0], e.liveRequest(), seq, open, rec)
}

// subscribe holds connection 2's /subscribe stream open and checks every
// batch it pushes: the initial full set, then exactly the answers each
// append added, each batch closed by its version marker.
func (e *serveEngine) subscribe(ctx context.Context) {
	l := e.live
	defer func() {
		close(l.subDone)
		l.mu.Lock()
		l.caughtUp.Broadcast()
		l.mu.Unlock()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.srv.base+"/datasets/live/subscribe",
		strings.NewReader(string(mustJSON(map[string]any{"query": joinQuery}))))
	if err != nil {
		l.fault("subscribe: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.conns[1].Do(req)
	if err != nil {
		l.fault("subscribe: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		l.fault("subscribe: status %d", resp.StatusCode)
		return
	}
	var batch expect
	trailer, err := ucq.DecodeSubscriptionStream(resp.Body, resp.Header.Get("Content-Type"),
		func(t ucq.Tuple) bool { batch.add(t); return true },
		func(ev ucq.SubscriptionEvent) bool {
			l.marker(ev, batch, time.Now())
			batch = expect{}
			return true
		})
	if ctx.Err() != nil {
		return // closed by stop
	}
	l.fault("subscription ended early: trailer %+v, %v", trailer, err)
}

// marker checks one pushed batch against the closed form and, while a
// traced window records, notes how long each covered append took to reach
// the subscriber. Wake-ups may coalesce, so one marker can cover several
// versions.
func (l *liveState) marker(ev ucq.SubscriptionEvent, batch expect, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	defer l.caughtUp.Broadcast()
	if ev.Resync {
		l.problems = append(l.problems, fmt.Sprintf("subscriber was resynced at version %d", ev.Version))
		l.seen = ev.Version
		return
	}
	var want expect
	for v := l.seen + 1; v <= ev.Version; v++ {
		info, ok := l.versions[v]
		if !ok {
			l.problems = append(l.problems, fmt.Sprintf("marker for unknown version %d", v))
			break
		}
		if l.seen == 0 {
			want = info.full // the initial batch is the whole answer set
		} else {
			want = want.plus(info.added)
			if l.recording {
				l.push = append(l.push, ms(at.Sub(info.sent)))
			}
		}
	}
	if batch != want && len(l.problems) < 8 {
		l.problems = append(l.problems, fmt.Sprintf("push through version %d: got %+v, want %+v", ev.Version, batch, want))
	}
	l.seen = ev.Version
}

// waitCaughtUp blocks until the subscriber has seen the head version.
func (l *liveState) waitCaughtUp(limit time.Duration) error {
	timer := time.AfterFunc(limit, func() {
		l.mu.Lock()
		l.caughtUp.Broadcast()
		l.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(limit)
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.seen < l.head {
		if time.Now().After(deadline) {
			return fmt.Errorf("serve-mixed: subscriber stuck at version %d, head is %d: %v", l.seen, l.head, l.problems)
		}
		select {
		case <-l.subDone:
			return fmt.Errorf("serve-mixed: subscription ended at version %d, head is %d: %v", l.seen, l.head, l.problems)
		default:
		}
		l.caughtUp.Wait()
	}
	return nil
}

func (l *liveState) close() {
	if l.cancel != nil {
		l.cancel()
		<-l.subDone
	}
}

// metrics adds the write-path figures of the traced window.
func (l *liveState) metrics(m metrics, a, b serverStats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m["catalog.append_ack_ms_p50"] = percentile(l.appendAck, 50)
	m["catalog.append_ack_ms_p90"] = percentile(l.appendAck, 90)
	m["delta.push_ms_p50"] = percentile(l.push, 50)
	m["delta.push_ms_p90"] = percentile(l.push, 90)
	appends := float64(l.appends)
	m["delta.answers_pushed_per_append"] = per(float64(b.Subscriptions.AnswersPushed-a.Subscriptions.AnswersPushed), appends)
	m["delta.resyncs"] = float64(b.Subscriptions.Resyncs - a.Subscriptions.Resyncs)
	if a.Storage != nil && b.Storage != nil {
		m["storage.wal_bytes_per_append"] = per(float64(b.Storage.WALBytes-a.Storage.WALBytes), appends)
		m["storage.wal_records_per_append"] = per(float64(b.Storage.WALRecords-a.Storage.WALRecords), appends)
	}
	l.appendAck, l.push, l.appends = nil, nil, 0
}

// probes times the catalog and delta layers alone, in this process, on an
// in-memory catalog holding the same dataset: AppendRows without journal or
// socket, the re-bind a version bump forces, and DeltaAnswers over one
// append.
func (l *liveState) probes(m metrics, seed int64, sz sizes) error {
	const reps = 21
	data := newLiveDataset(subRand(seed, purposeGrowth), sz)
	inst, err := ucq.InstanceFromRows(data.base)
	if err != nil {
		return err
	}
	ds, err := ucq.NewCatalog().Register("live", inst)
	if err != nil {
		return err
	}
	u, err := ucq.Parse(joinQuery)
	if err != nil {
		return err
	}
	pq, err := ucq.Prepare(u, nil)
	if err != nil {
		return err
	}
	plan, err := pq.BindDataset(ds)
	if err != nil {
		return err
	}
	var appendUS, bindMS, deltaUS []float64
	for i := 0; i < reps; i++ {
		batch, added := data.nextAppend()
		t0 := time.Now()
		version, err := ds.AppendRows(batch)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("append probe: %w", err)
		}
		next, err := pq.BindDataset(ds)
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("re-bind probe: %w", err)
		}
		answers, err := plan.DeltaAnswers(version-1, version)
		t3 := time.Now()
		if err != nil || len(answers) != len(added) {
			return fmt.Errorf("delta probe: %d answers, want %d: %v", len(answers), len(added), err)
		}
		appendUS = append(appendUS, us(t1.Sub(t0)))
		bindMS = append(bindMS, ms(t2.Sub(t1)))
		deltaUS = append(deltaUS, us(t3.Sub(t2)))
		plan = next
	}
	m["catalog.append_us_p50"] = percentile(appendUS, 50)
	m["delta.answers_us_p50"] = percentile(deltaUS, 50)
	bind := percentile(bindMS, 50)
	m["core.bind_ms_p50"] = bind
	m["core.bind_ns_per_tuple"] = per(bind*1e6, float64(data.base.tupleCount()))
	return nil
}
