package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/database"
)

// The gather loop is internal/exec's steal/split lifted to the network.
// The query's root domain [0, RootLen) is cut into one contiguous segment
// per worker; each worker has one fetcher goroutine that pops segments
// from a shared queue and serves them with scatter calls, one call at a
// time per worker (per-worker backpressure: the coordinator reads each
// worker stream at the merged consumer's pace, and a full output channel
// propagates TCP backpressure to the worker). The steal protocol mirrors
// the executor's idle-driven shedding: a fetcher with nothing to do marks
// the heaviest in-flight call as shed; that call's owner notices at its
// next marker, cuts its range in half at the progress point, queues the
// far half for the idler and re-issues only its own near half. A failed
// call (transport error, non-200, stall deadline) re-queues exactly the
// undelivered remainder [last marker, hi) with a bumped attempt count —
// bounded retries with backoff — so a worker killed mid-stream costs the
// query nothing but latency, and never a duplicate or lost answer.

// Header describes the merged stream: the probed plan provenance plus the
// scatter decision.
type Header struct {
	// Mode is the engine mode ("constant-delay" or "naive").
	Mode string
	// Cache and Bind are the probed/fallback worker's plan-cache and
	// bind-cache states ("hit"/"miss").
	Cache string
	Bind  string
	// Dataset and DatasetVersion identify the snapshot (per the probed
	// worker; the per-worker version guard keeps the others consistent).
	Dataset        string
	DatasetVersion uint64
	// Arity is the answer tuple width, from the probed worker's plan.
	Arity int
	// RootLen is the scattered root domain size (0 for fallback streams).
	RootLen int
	// Scatter is the merge strategy: "root-range" or "single-worker".
	Scatter string
	// Workers is the fan-out width (1 for fallback streams).
	Workers int
}

// Stream is a merged, dedup-free answer stream from a distributed query,
// shaped like every other answer iterator: drain Next to exhaustion, then
// check Err; or Close early to cancel the remaining scatter work (e.g. an
// answer limit was reached). The fan-out starts at the first Next, not in
// Coordinator.Query — a caller can read the Header, pass its own admission
// control, and only then tie up worker connections. Like all iterators, a
// Stream is for one goroutine.
type Stream struct {
	Header Header

	// open starts the fan-out, setting c and cancel.
	open func(*Stream)
	// c carries marker-aligned batches of answers in worker stream order.
	// Batches from different workers cover disjoint root ranges, so
	// concatenating them is the whole merge.
	c      <-chan []database.Tuple
	cancel context.CancelFunc
	cur    []database.Tuple
	// err is written by the producing side before it closes c and read
	// only after Next has seen c closed (drained), so it needs no lock.
	err     error
	drained bool
	closed  bool
}

// Next returns the next merged answer; false ends the stream.
func (s *Stream) Next() (database.Tuple, bool) {
	for len(s.cur) == 0 {
		if s.drained || s.closed {
			return nil, false
		}
		if s.c == nil {
			s.open(s)
		}
		var ok bool
		if s.cur, ok = <-s.c; !ok {
			s.drained = true
			return nil, false
		}
	}
	t := s.cur[0]
	s.cur = s.cur[1:]
	return t, true
}

// Err reports why the stream ended, once Next has returned false: nil for
// a complete merge, the terminal failure otherwise. A stream abandoned or
// Close-d before its end reports nil.
func (s *Stream) Err() error {
	if !s.drained {
		return nil
	}
	return s.err
}

// Close cancels the stream's remaining scatter work.
func (s *Stream) Close() {
	s.closed = true
	if s.cancel != nil {
		s.cancel()
	}
}

// segment is a pending root-row range with its retry budget consumed so
// far.
type segment struct {
	lo, hi   int
	attempts int
}

// call is the published state of one in-flight scatter call: the range it
// is still responsible for (lo advances at each marker) and the shed flag
// an idle peer sets to request a re-split.
type call struct {
	lo, hi int
	shed   bool
}

// gather coordinates the fetchers of one scattered query.
type gather struct {
	c       *Coordinator
	sc      *scatterClient
	dataset string
	// versions pins the per-worker dataset versions observed at
	// registration: every call carries its worker's expected version, so a
	// dataset replaced mid-query makes the stale worker 409 (its ranges
	// fail over to replicas still serving the registered snapshot) instead
	// of mixing answers from different snapshots into one merge.
	versions map[string]uint64
	base     ScatterRequest // Query/Mode/MarkerEvery template
	rootLen  int

	ctx    context.Context
	cancel context.CancelFunc
	out    chan []database.Tuple
	wake   chan struct{}
	done   chan struct{}
	once   sync.Once

	mu        sync.Mutex
	segs      []segment
	active    []*call
	remaining int
	alive     int
	failed    error
	finished  bool
}

// gatherStream fans a scatterable query out across the workers, feeding
// the merged chunks to st.
func (c *Coordinator) gatherStream(ctx context.Context, st *Stream, versions map[string]uint64, base ScatterRequest, dataset string) {
	gctx, cancel := context.WithCancel(ctx)
	workers := c.workers
	rootLen := st.Header.RootLen
	g := &gather{
		c:         c,
		sc:        c.sc,
		dataset:   dataset,
		versions:  versions,
		base:      base,
		rootLen:   rootLen,
		ctx:       gctx,
		cancel:    cancel,
		out:       make(chan []database.Tuple, 2*len(workers)),
		wake:      make(chan struct{}, len(workers)),
		done:      make(chan struct{}),
		active:    make([]*call, len(workers)),
		remaining: rootLen,
		alive:     len(workers),
	}
	st.c, st.cancel = g.out, cancel
	// One contiguous segment per worker; empty slices (RootLen < workers)
	// are skipped.
	for i := range workers {
		lo, hi := i*rootLen/len(workers), (i+1)*rootLen/len(workers)
		if lo < hi {
			g.segs = append(g.segs, segment{lo: lo, hi: hi})
		}
	}
	if rootLen == 0 {
		close(g.out)
		return
	}
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w string) {
			defer wg.Done()
			g.fetcher(i, w)
		}(i, w)
	}
	go func() {
		wg.Wait()
		g.mu.Lock()
		err := g.failed
		if err == nil && !g.finished && gctx.Err() == nil {
			// Close/cancellation is abandonment, not failure; anything else
			// that stops short is.
			err = fmt.Errorf("cluster: scatter ended with %d root rows undelivered", g.remaining)
		}
		g.mu.Unlock()
		st.err = err
		close(g.out)
	}()
}

// wakeAll nudges every parked fetcher (non-blocking, channel is bounded).
func (g *gather) wakeAll() {
	for i := 0; i < cap(g.wake); i++ {
		select {
		case g.wake <- struct{}{}:
		default:
			return
		}
	}
}

// finishLocked marks the merge complete. Callers hold g.mu.
func (g *gather) finishLocked() {
	g.finished = true
	g.once.Do(func() { close(g.done) })
}

// failLocked records the first terminal failure and aborts every call.
// Callers hold g.mu.
func (g *gather) failLocked(err error) {
	if g.failed == nil {
		g.failed = err
	}
	g.cancel()
	g.once.Do(func() { close(g.done) })
}

// next blocks until a segment is available (registering it as fetcher i's
// active call) or the merge is over. While parked with work still in
// flight elsewhere, it marks the heaviest active call as shed — the
// idle-driven re-split request a straggler's owner honours at its next
// marker.
func (g *gather) next(i int) (segment, bool) {
	for {
		g.mu.Lock()
		if g.failed != nil || g.finished || g.ctx.Err() != nil {
			g.mu.Unlock()
			return segment{}, false
		}
		if len(g.segs) > 0 {
			seg := g.segs[0]
			g.segs = g.segs[1:]
			g.active[i] = &call{lo: seg.lo, hi: seg.hi}
			g.mu.Unlock()
			return seg, true
		}
		// Queue empty but the merge is not done: some other call holds the
		// remaining rows. Ask the heaviest one (≥ 2 rows left, not already
		// asked) to shed its far half.
		var victim *call
		best := 1
		for j, ca := range g.active {
			if j != i && ca != nil && !ca.shed && ca.hi-ca.lo > best {
				victim, best = ca, ca.hi-ca.lo
			}
		}
		if victim != nil {
			victim.shed = true
		}
		g.mu.Unlock()
		select {
		case <-g.wake:
		case <-g.done:
		case <-g.ctx.Done():
		}
	}
}

// fetcher is worker w's serving loop: pop a segment, serve it, repeat. A
// fetcher whose worker fails twice in a row retires (its segments have
// already been re-queued for the survivors) as long as another fetcher is
// still alive; the last fetcher never retires — its segments' bounded
// attempt counts terminate the query instead.
func (g *gather) fetcher(i int, worker string) {
	defer func() {
		g.mu.Lock()
		g.alive--
		if g.alive == 0 && !g.finished && g.failed == nil && g.ctx.Err() == nil {
			g.failLocked(fmt.Errorf("cluster: all workers failed"))
		}
		g.mu.Unlock()
		g.wakeAll()
	}()
	failStreak := 0
	for {
		seg, ok := g.next(i)
		if !ok {
			return
		}
		err := g.serve(i, worker, seg)
		g.mu.Lock()
		g.active[i] = nil
		g.mu.Unlock()
		// A completed call may have been another fetcher's shed victim;
		// wake parked fetchers so they re-target.
		g.wakeAll()
		if err == nil {
			failStreak = 0
			continue
		}
		if g.ctx.Err() != nil {
			return
		}
		failStreak++
		g.mu.Lock()
		othersAlive := g.alive > 1
		g.mu.Unlock()
		if failStreak >= 2 && othersAlive {
			// The worker looks dead; retire so its segments stop bouncing
			// back to it. Survivors drain the queue.
			return
		}
		// Exponential backoff before retrying through this worker again,
		// giving healthy peers first crack at the re-queued segment.
		backoff := g.c.cfg.Backoff << (failStreak - 1)
		select {
		case <-time.After(backoff):
		case <-g.done:
			return
		case <-g.ctx.Done():
			return
		}
	}
}

// serve runs scatter calls for one segment until it is fully delivered,
// shedding at markers when asked. It returns nil when the segment's rows
// were all delivered (by this fetcher, possibly minus ranges shed to
// peers), or the terminal call error (the undelivered remainder has been
// re-queued or the query failed).
func (g *gather) serve(i int, worker string, seg segment) error {
	ca := g.active[i]
	for {
		req := g.base
		req.RootLo, req.RootHi = ca.lo, ca.hi
		req.Version = g.versions[worker]
		g.c.scatterCalls.Add(1)

		err := g.sc.run(g.ctx, worker, g.dataset, &req, g.rootLen, func(tuples []database.Tuple, rootDone int) bool {
			if len(tuples) > 0 {
				select {
				case g.out <- tuples:
				case <-g.ctx.Done():
					return true
				}
			}
			g.mu.Lock()
			if rootDone > ca.hi {
				rootDone = ca.hi
			}
			g.remaining -= rootDone - ca.lo
			ca.lo = rootDone
			if g.remaining == 0 {
				g.finishLocked()
			}
			shed := ca.shed && ca.hi-ca.lo >= 2
			if shed {
				mid := ca.lo + (ca.hi-ca.lo)/2
				g.segs = append(g.segs, segment{lo: mid, hi: ca.hi})
				ca.hi = mid
				ca.shed = false
				g.c.scatterResplits.Add(1)
			}
			g.mu.Unlock()
			if shed {
				g.wakeAll()
			}
			return shed
		})
		switch {
		case err == nil:
			return nil
		case err == errShed:
			// Range truncated at the last marker; re-issue the near half
			// unless the marker landed exactly on the new boundary.
			if ca.lo >= ca.hi {
				return nil
			}
			continue
		default:
			g.mu.Lock()
			if ca.lo < ca.hi && g.failed == nil && !g.finished && g.ctx.Err() == nil {
				rem := segment{lo: ca.lo, hi: ca.hi, attempts: seg.attempts + 1}
				if rem.attempts >= g.c.cfg.MaxAttempts {
					g.failLocked(fmt.Errorf("cluster: range [%d,%d) failed %d times, last: %w",
						rem.lo, rem.hi, rem.attempts, err))
				} else {
					g.segs = append(g.segs, rem)
					g.c.scatterRetries.Add(1)
				}
			}
			g.mu.Unlock()
			g.wakeAll()
			return err
		}
	}
}
