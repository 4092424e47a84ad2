package enumeration

import (
	"context"

	"repro/internal/database"
	"repro/internal/exec"
)

// DefaultBatchSize is the batch size both sources settle on: the executor's
// per-worker default, and the ceiling of the inline source's doubling
// schedule. Large enough to amortize channel synchronization and
// cancellation checks, small enough to keep answers flowing early.
const DefaultBatchSize = exec.DefaultBatchSize

// UnionOptions tunes a Union.
type UnionOptions struct {
	// Workers selects the source. 0 runs the tasks inline: in order, on the
	// caller's goroutine, with no goroutine, no channel and a deterministic
	// answer order. n ≥ 1 drains them on the work-stealing executor with n
	// workers; answer order is then nondeterministic.
	Workers int
	// BatchSize is the executor's per-worker batch size; ≤ 0 selects
	// DefaultBatchSize. The inline source ignores it: its batches double
	// from one answer up to DefaultBatchSize, so the first answer costs one
	// tuple.
	BatchSize int
}

// Union is the engine's one merge: it enumerates the union of several
// tasks (resumable slices of an enumeration, see exec.Task) that are
// pairwise disjoint and individually duplicate-free — root-range splits of
// CDY plans, each skipping what a lower-ranked plan contains (core's rank
// rule). Disjointness is the tasks' contract, so the merge keeps no answer
// set: every task answer is emitted exactly once, as a view into the batch
// it arrived in, and memory beyond the tasks is O(batch).
//
// Task results arrive in flat batches from one of two sources. Inline
// (Workers 0) the tasks run in order on the caller's goroutine: answers
// come in a deterministic order, and there is no goroutine and no channel
// behind the stream. On the executor (Workers ≥ 1, internal/exec) a bounded
// worker pool steals and re-splits the tasks so a single heavy branch
// decomposes across workers; synchronization is paid per batch and answer
// order is nondeterministic. Both sources check the construction context
// once per batch: a cancelled union ends within one batch, without an
// error (cancellation is abandonment).
//
// Like all iterators in this package, a Union is single-use and its
// Next/Close methods are not safe for concurrent use. Draining to
// exhaustion releases everything automatically; abandoning a partially
// drained union requires Close (or cancelling the construction context) to
// release executor workers and tasks that hold resources of their own.
type Union struct {
	ctx   context.Context
	arity int

	// tasks is the inline source's unfinished remainder, or every task
	// handed to the executor; Close forwards to those that are Closers.
	tasks []exec.Task
	ex    *exec.Executor // nil inline
	batch int            // inline: size of the next batch

	cur exec.Batch
	pos int

	closed bool
}

// NewUnion builds the union of the given tasks. arity is their common
// answer arity (zero is allowed: nullary answers are counted, not stored).
// With opts.Workers ≥ 1 the executor's workers start at once; inline,
// nothing runs until the first Next.
func NewUnion(ctx context.Context, arity int, opts UnionOptions, tasks []exec.Task) *Union {
	u := &Union{ctx: ctx, arity: arity, tasks: tasks, batch: 1}
	if opts.Workers > 0 {
		u.ex = exec.Run(ctx, exec.Options{
			Workers:   opts.Workers,
			BatchSize: opts.BatchSize,
			Arity:     arity,
		}, tasks)
	}
	return u
}

// Next implements Iterator: every task answer once, in the order the
// source delivers them. Returned tuples are stable views into the (never
// reused) batch buffers.
func (u *Union) Next() (database.Tuple, bool) {
	for u.pos == u.cur.N {
		if u.closed || !u.refill() {
			u.Close()
			return nil, false
		}
	}
	t := database.Tuple{}
	if u.arity > 0 {
		off := u.pos * u.arity
		t = u.cur.Vals[off : off+u.arity]
	}
	u.pos++
	return t, true
}

// refill replaces the consumed batch with the source's next one, reporting
// false once the source is exhausted or the context cancelled. Emitted
// tuples are views into their batch, so every batch gets a fresh buffer.
func (u *Union) refill() bool {
	if u.ctx.Err() != nil {
		return false
	}
	if u.ex != nil {
		b, ok := <-u.ex.C()
		u.cur, u.pos = b, 0
		return ok
	}
	for len(u.tasks) > 0 {
		buf, n := u.tasks[0].NextBatch(make([]database.Value, 0, u.batch*u.arity), u.batch)
		if n == 0 {
			u.tasks = u.tasks[1:]
			continue
		}
		u.cur, u.pos = exec.Batch{Vals: buf, N: n}, 0
		u.batch = min(2*u.batch, DefaultBatchSize)
		return true
	}
	return false
}

// Close ends the stream and releases what is behind it: the executor's
// workers (blocking until every one has exited — at most one in-flight
// batch later) and every unfinished task that is itself a Closer. It is
// idempotent, runs automatically when the stream is drained to exhaustion,
// and must be called explicitly when abandoning a partially drained union
// (e.g. after an answer limit) unless the construction context is cancelled
// instead. After Close, Next reports exhaustion.
func (u *Union) Close() {
	if u.closed {
		return
	}
	u.closed = true
	if u.ex != nil {
		u.ex.Close()
	}
	for _, t := range u.tasks {
		if c, ok := t.(Closer); ok {
			c.Close()
		}
	}
	u.cur, u.pos = exec.Batch{}, 0
}

// Stats returns the executor's counters (workers, tasks run, steals,
// splits); the inline source has none and reports the zero Stats.
func (u *Union) Stats() exec.Stats {
	if u.ex == nil {
		return exec.Stats{}
	}
	return u.ex.Stats()
}

// iterTask adapts a plain iterator to the Task interface as one
// indivisible unit of work. NextBatch copies tuple values into buf, so the
// batch owns its data even when the iterator reuses an internal buffer.
type iterTask struct{ it Iterator }

func (t iterTask) NextBatch(buf []database.Value, max int) ([]database.Value, int) {
	n := 0
	for n < max {
		tup, ok := t.it.Next()
		if !ok {
			break
		}
		buf = append(buf, tup...)
		n++
	}
	return buf, n
}

func (t iterTask) Split() exec.Task { return nil }

// Close releases the wrapped iterator, so a union nested inside a task is
// released with the union that runs the task.
func (t iterTask) Close() { CloseIterator(t.it) }

// TaskOf wraps an iterator as an indivisible task (iterators that already
// are tasks, like SliceIterator, pass through). Work that can be divided
// (plan root ranges) should implement exec.Task directly so the executor
// can steal and re-split it.
func TaskOf(it Iterator) exec.Task {
	if t, ok := it.(exec.Task); ok {
		return t
	}
	return iterTask{it: it}
}
