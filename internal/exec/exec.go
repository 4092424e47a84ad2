// Package exec is the task-based work-stealing executor behind every
// parallel enumeration in this repository. A one-goroutine-per-branch
// model fixes the unit of parallelism at plan time: under output skew — one
// branch's keys producing most of the answers — all surplus workers idle
// while a single goroutine drags (the unbalanced-instance regime of
// Bringmann & Carmeli's unbalanced triangle work).
//
// Here the unit of parallelism is a Task: a resumable slice of an
// enumeration (typically a CDY plan restricted to a range of its root
// position's candidate rows) that produces answers in flat value batches
// and can split off roughly half of its remaining work at any batch
// boundary. A bounded pool of workers drains the tasks; each worker owns a
// deque, pushing and popping at the bottom, and steals from the top of a
// victim's deque when its own runs dry. Stolen tasks are split again, and a
// running task sheds half of its remainder whenever some worker is idle, so
// a single heavy task decomposes adaptively instead of serialising on its
// initial owner.
//
// Cancellation is first-class: the executor is built on a context.Context
// checked at batch granularity. Cancelling the context — a client
// disconnect, a Close on the consuming iterator, a server shutdown —
// releases every worker promptly; no enumeration continues past
// cancellation by more than one in-flight batch per worker.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/database"
)

// DefaultBatchSize is the per-task batch size used when Options.BatchSize
// is non-positive: large enough to amortize channel synchronization and
// cancellation checks, small enough to keep answers flowing early and
// cancellation prompt.
const DefaultBatchSize = 256

// Task is a resumable unit of enumeration work. Implementations are not
// safe for concurrent use: the executor guarantees a task is owned by one
// worker at a time and that Split is only invoked by the owning worker
// between NextBatch calls (or before the first).
type Task interface {
	// NextBatch appends the values of up to max answers to buf — flat, one
	// answer's values after another — and returns the extended buffer and
	// the number of answers appended. Appending zero answers means the task
	// is exhausted.
	NextBatch(buf []database.Value, max int) ([]database.Value, int)

	// Split carves off roughly half of the task's remaining work into a new
	// independent Task, shrinking the receiver, or returns nil when the
	// remainder is too small to divide. The two halves must together
	// produce exactly the answers the undivided task would have.
	Split() Task
}

// Batch carries n answers' values, flat, from a worker to the consumer.
type Batch struct {
	// Vals holds N answers' values back to back.
	Vals []database.Value
	// N is the number of answers in the batch.
	N int
}

// Options tunes an Executor.
type Options struct {
	// Workers bounds the worker pool; ≤ 0 selects GOMAXPROCS.
	Workers int
	// BatchSize is the per-task batch size; ≤ 0 selects DefaultBatchSize.
	BatchSize int
	// Arity is the common answer arity of the tasks (zero is allowed:
	// nullary answers are counted, not stored).
	Arity int
}

// Stats is a snapshot of an executor's counters.
type Stats struct {
	// Workers is the pool size.
	Workers int
	// Tasks counts task executions, including split-off halves.
	Tasks int64
	// Steals counts tasks taken from another worker's deque.
	Steals int64
	// Splits counts successful Split calls (at steal time and while
	// shedding work to idle workers).
	Splits int64
}

// Executor runs a set of tasks across a bounded worker pool with work
// stealing, delivering batches on C until every task is drained or the
// context is cancelled. Obtain one from Run.
type Executor struct {
	ctx    context.Context
	cancel context.CancelFunc

	out  chan Batch
	free chan []database.Value
	done chan struct{} // closed after every worker has exited

	deques  []deque
	wake    chan struct{}
	allDone chan struct{} // closed when the last task finishes
	allOnce sync.Once

	idle    atomic.Int64
	pending atomic.Int64

	workers int
	batch   int
	arity   int
	bufCap  int

	tasks  atomic.Int64
	steals atomic.Int64
	splits atomic.Int64
}

// deque is one worker's task queue: the owner pushes and pops at the
// bottom (LIFO keeps split-off halves cache-warm), thieves steal from the
// top (FIFO hands them the largest unstarted ranges). Deque operations
// happen once per task, not per batch, so a plain mutex is cheap here.
type deque struct {
	mu    sync.Mutex
	tasks []Task
}

func (d *deque) push(t Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *deque) pop() Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if n == 0 {
		return nil
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	return t
}

func (d *deque) steal() Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return nil
	}
	t := d.tasks[0]
	copy(d.tasks, d.tasks[1:])
	d.tasks[len(d.tasks)-1] = nil
	d.tasks = d.tasks[:len(d.tasks)-1]
	return t
}

// Run starts the pool and begins draining the tasks. The caller consumes
// batches from C until it is closed (all tasks drained) and should call
// Close when abandoning the stream early; cancelling ctx is equivalent.
func Run(ctx context.Context, opts Options, tasks []Task) *Executor {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	bufCap := batch * opts.Arity
	if bufCap == 0 {
		bufCap = 1 // non-nil buffers keep the recycle path uniform
	}
	// The out buffer decouples producers from the consumer: deep enough
	// that a lone worker keeps producing while the consumer merges (the
	// pipelining the per-branch model got from one channel slot per
	// branch), bounded so an abandoned stream holds O(workers+tasks)
	// batches, not the whole answer set.
	outCap := 2*workers + 8
	ectx, cancel := context.WithCancel(ctx)
	e := &Executor{
		ctx:     ectx,
		cancel:  cancel,
		out:     make(chan Batch, outCap),
		free:    make(chan []database.Value, outCap+2*workers),
		done:    make(chan struct{}),
		deques:  make([]deque, workers),
		wake:    make(chan struct{}, workers),
		allDone: make(chan struct{}),
		workers: workers,
		batch:   batch,
		arity:   opts.Arity,
		bufCap:  bufCap,
	}
	e.pending.Store(int64(len(tasks)))
	if len(tasks) == 0 {
		e.allOnce.Do(func() { close(e.allDone) })
	}
	for i, t := range tasks {
		e.deques[i%workers].push(t)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			e.worker(self)
		}(i)
	}
	go func() {
		wg.Wait()
		close(e.out)
		close(e.done)
	}()
	return e
}

// C returns the batch stream. It is closed once every task has drained or,
// after cancellation, once every worker has exited.
func (e *Executor) C() <-chan Batch { return e.out }

// Close cancels the executor and blocks until every worker has exited —
// at most one in-flight batch per worker later. It is idempotent and safe
// to call concurrently with the consumer.
func (e *Executor) Close() {
	e.cancel()
	<-e.done
}

// Recycle returns a fully consumed batch buffer to the pool. Callers that
// retain views into the buffer (the disjoint merge) must not recycle it.
func (e *Executor) Recycle(buf []database.Value) {
	select {
	case e.free <- buf:
	default:
	}
}

// Stats returns a snapshot of the executor's counters.
func (e *Executor) Stats() Stats {
	return Stats{
		Workers: e.workers,
		Tasks:   e.tasks.Load(),
		Steals:  e.steals.Load(),
		Splits:  e.splits.Load(),
	}
}

// worker is the per-worker loop: run own work, steal when dry, park when
// the whole pool is dry, exit on completion or cancellation.
func (e *Executor) worker(self int) {
	for {
		if e.ctx.Err() != nil {
			return
		}
		t, stolen := e.find(self)
		if t == nil {
			if e.pending.Load() == 0 {
				return
			}
			// Park until a task is pushed somewhere, the last task
			// finishes, or the executor is cancelled. The wake channel is
			// buffered with one slot per worker, so a signal sent between
			// our empty scan and this receive is never lost.
			e.idle.Add(1)
			select {
			case <-e.wake:
			case <-e.allDone:
			case <-e.ctx.Done():
			}
			e.idle.Add(-1)
			continue
		}
		if stolen {
			e.steals.Add(1)
			// Halve a freshly stolen task: the thief keeps one part and
			// exposes the other for the next steal, so a heavy range decays
			// geometrically across the pool.
			e.trySplit(self, t)
		}
		e.run(self, t)
	}
}

// find pops from the worker's own deque, then scans the others for a
// steal. The boolean reports whether the task was stolen.
func (e *Executor) find(self int) (Task, bool) {
	if t := e.deques[self].pop(); t != nil {
		return t, false
	}
	for i := 1; i < e.workers; i++ {
		if t := e.deques[(self+i)%e.workers].steal(); t != nil {
			return t, true
		}
	}
	return nil, false
}

// run drains one task, shedding half of its remainder whenever some worker
// is idle and checking cancellation once per batch.
func (e *Executor) run(self int, t Task) {
	e.tasks.Add(1)
	for {
		if e.ctx.Err() != nil {
			e.finishTask()
			return
		}
		if e.idle.Load() > 0 {
			e.trySplit(self, t)
		}
		buf := e.buffer()
		buf, n := t.NextBatch(buf, e.batch)
		if n == 0 {
			e.Recycle(buf)
			e.finishTask()
			return
		}
		select {
		case e.out <- Batch{Vals: buf, N: n}:
		case <-e.ctx.Done():
			e.finishTask()
			return
		}
	}
}

// trySplit asks the task for half of its remaining work and publishes the
// half on the worker's own deque, where parked thieves will find it.
func (e *Executor) trySplit(self int, t Task) {
	half := t.Split()
	if half == nil {
		return
	}
	e.splits.Add(1)
	e.pending.Add(1)
	e.deques[self].push(half)
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// finishTask retires one task; the last one releases every parked worker.
func (e *Executor) finishTask() {
	if e.pending.Add(-1) == 0 {
		e.allOnce.Do(func() { close(e.allDone) })
	}
}

// buffer hands out an empty batch buffer, recycling consumed ones.
func (e *Executor) buffer() []database.Value {
	select {
	case buf := <-e.free:
		return buf[:0]
	default:
		return make([]database.Value, 0, e.bufCap)
	}
}
