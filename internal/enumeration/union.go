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

// MaxSizeHint caps the dedup pre-sizing a UnionOptions.SizeHint may ask
// for, bounding the up-front slot-table allocation (a hint is advisory; the
// set still grows past it on demand). Kept modest so a limited or
// early-abandoned drain of a plan with a huge estimate does not pay a
// final-size allocation for answers it never pulls.
const MaxSizeHint = 1 << 22

// maxPreallocValues bounds the arena/hash preallocation (in values) the
// same way.
const maxPreallocValues = 1 << 22

// UnionOptions tunes a Union merge.
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
	// M is the Cheater's Lemma duplication bound (Lemma 5): the merge pulls
	// up to M task results per emitted answer, queueing the fresh ones, so
	// a source that repeats every answer at most M times still feeds the
	// consumer at a steady pace. < 1 means 1: emit as soon as fresh.
	M int
	// SizeHint pre-sizes the dedup set to the expected number of distinct
	// answers, so the hot merge path never pays a growth rehash. ≤ 0 means
	// unknown; hints above MaxSizeHint are clamped.
	SizeHint int
	// Disjoint promises that the tasks are pairwise disjoint and
	// individually duplicate-free (e.g. root-range splits of one CDY plan).
	// The merge then skips deduplication entirely: answers pass straight
	// from the task batches to the consumer, and returned tuples are
	// stable views into the batch buffers.
	Disjoint bool
	// SpillBudget, when positive, bounds the number of distinct answers the
	// dedup set holds in memory: past it the set migrates to a disk-backed
	// table (internal/storage.SpillSet) and the merge continues with the
	// same answer set. ≤ 0 keeps dedup purely in memory. Ignored when
	// Disjoint (there is no dedup set to spill).
	SpillBudget int
	// SpillDir is where spilled dedup tables live (a private temp directory
	// is created under it); empty selects os.TempDir().
	SpillDir string
}

// Union is the engine's one merge: it enumerates the union of several
// tasks (resumable slices of an enumeration, see exec.Task) with global
// deduplication by the Cheater's Lemma (Lemma 5). Each Next pulls up to M
// task results through the dedup set, queues the fresh ones and emits the
// oldest, which turns a source with bounded duplication and constantly
// many stalls into a duplicate-free stream with constant delay.
//
// Task results arrive in flat batches from one of two sources. Inline
// (Workers 0) the tasks run in order on the caller's goroutine: answers
// come in a deterministic order of first occurrence, and there is no
// goroutine and no channel behind the stream. On the executor (Workers ≥ 1, internal/exec) a bounded worker
// pool steals and re-splits the tasks so a single heavy branch decomposes
// across workers; synchronization is paid per batch, deduplication stays
// exact, and answer order is nondeterministic. Both sources check the
// construction context once per batch: a cancelled union ends within one
// batch, without an error (cancellation is abandonment).
//
// With UnionOptions.Disjoint the dedup set and the queue are bypassed: each
// task answer is emitted exactly once, which is correct precisely when the
// tasks are pairwise disjoint and duplicate-free.
//
// Like all iterators in this package, a Union is single-use and its
// Next/Close methods are not safe for concurrent use. Draining to
// exhaustion releases everything automatically; abandoning a partially
// drained union requires Close (or cancelling the construction context) to
// release executor workers and tasks that hold resources of their own.
type Union struct {
	ctx      context.Context
	arity    int
	disjoint bool
	m        int

	// tasks is the inline source's unfinished remainder, or every task
	// handed to the executor; Close forwards to those that are Closers.
	tasks []exec.Task
	ex    *exec.Executor // nil inline
	batch int            // inline: size of the next batch

	cur exec.Batch
	pos int

	seen  dedupSet
	queue []database.Tuple // fresh results not yet emitted, FIFO from head
	head  int

	closed bool
	err    error
	// Stats.
	pulled     int
	duplicates int
}

// NewUnion builds the union of the given tasks. arity is their common
// answer arity (zero is allowed: nullary answers are counted, not stored).
// With opts.Workers ≥ 1 the executor's workers start at once; inline,
// nothing runs until the first Next.
func NewUnion(ctx context.Context, arity int, opts UnionOptions, tasks []exec.Task) *Union {
	u := &Union{
		ctx:      ctx,
		arity:    arity,
		disjoint: opts.Disjoint,
		m:        max(opts.M, 1),
		tasks:    tasks,
		batch:    1,
	}
	if !opts.Disjoint {
		hint := min(max(opts.SizeHint, 0), MaxSizeHint)
		if opts.SpillBudget > 0 {
			u.seen = newSpillingSet(opts.SpillDir, arity, opts.SpillBudget, hint)
		} else {
			u.seen = memSet{database.NewTupleSetSized(hint, min(hint*arity, maxPreallocValues))}
		}
	}
	if opts.Workers > 0 {
		u.ex = exec.Run(ctx, exec.Options{
			Workers:   opts.Workers,
			BatchSize: opts.BatchSize,
			Arity:     arity,
		}, tasks)
	}
	return u
}

// Next implements Iterator: duplicate-free, in order of first occurrence
// among the task results as the source delivers them. Returned tuples are
// stable views owned by the union: arena entries of the dedup set, or, in
// disjoint mode, slices of the (never reused) batch buffers.
func (u *Union) Next() (database.Tuple, bool) {
	if u.disjoint {
		t, ok := u.pull()
		if !ok {
			u.Close()
		}
		return t, ok
	}
	// Lemma 5: spend up to m pulls per emitted answer, and keep pulling
	// while nothing is pending. Under the lemma's preconditions the second
	// clause runs at most m more times.
	for pulls := 0; pulls < u.m || u.head == len(u.queue); pulls++ {
		t, ok := u.pull()
		if !ok {
			break
		}
		stored, fresh, err := u.seen.InsertGet(t)
		if err != nil {
			// A spill failure poisons the union: dedup state is gone, so
			// continuing could emit duplicates. Surface it via Err.
			u.err = err
			u.Close()
			break
		}
		if fresh {
			u.queue = append(u.queue, stored)
		} else {
			u.duplicates++
		}
	}
	if u.head == len(u.queue) {
		u.Close()
		return nil, false
	}
	return u.pop(), true
}

// pull returns the next task result as a view into the current batch.
func (u *Union) pull() (database.Tuple, bool) {
	for u.pos == u.cur.N {
		if u.closed || !u.refill() {
			return nil, false
		}
	}
	t := database.Tuple{}
	if u.arity > 0 {
		off := u.pos * u.arity
		t = u.cur.Vals[off : off+u.arity]
	}
	u.pos++
	u.pulled++
	return t, true
}

// refill replaces the consumed batch with the source's next one, reporting
// false once the source is exhausted or the context cancelled. In dedup
// mode the consumed batch is fully merged into the dedup arena, so its
// buffer is reused; in disjoint mode emitted tuples are views into it, so
// it stays untouched and every batch gets a fresh buffer.
func (u *Union) refill() bool {
	if u.ctx.Err() != nil {
		u.Close()
		return false
	}
	if u.ex != nil {
		if u.cur.Vals != nil && !u.disjoint {
			u.ex.Recycle(u.cur.Vals)
		}
		b, ok := <-u.ex.C()
		u.cur, u.pos = b, 0
		return ok
	}
	for len(u.tasks) > 0 {
		buf := u.cur.Vals[:0]
		if u.disjoint || cap(buf) < u.batch*u.arity {
			buf = make([]database.Value, 0, u.batch*u.arity)
		}
		buf, n := u.tasks[0].NextBatch(buf, u.batch)
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

// pop consumes the queue head, releasing the slot so the queue retains
// O(pending) tuple references rather than every answer ever emitted: the
// consumed slot is nilled immediately, a fully drained queue resets to
// length zero, and a mostly-consumed one compacts its tail to the front.
func (u *Union) pop() database.Tuple {
	t := u.queue[u.head]
	u.queue[u.head] = nil
	u.head++
	switch {
	case u.head == len(u.queue):
		u.queue = u.queue[:0]
		u.head = 0
	case u.head >= 64 && u.head*2 >= len(u.queue):
		n := copy(u.queue, u.queue[u.head:])
		clear(u.queue[n:])
		u.queue = u.queue[:n]
		u.head = 0
	}
	return t
}

// Close ends the stream and releases what is behind it: the executor's
// workers (blocking until every one has exited — at most one in-flight
// batch later), every unfinished task that is itself a Closer, and the
// dedup set's disk table. It is idempotent, runs automatically when the
// stream is drained to exhaustion, and must be called explicitly when
// abandoning a partially drained union (e.g. after an answer limit) unless
// the construction context is cancelled instead. After Close, Next reports
// exhaustion.
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
	if u.seen != nil {
		u.seen.Close()
	}
	u.cur, u.pos = exec.Batch{}, 0
	u.queue, u.head = nil, 0
}

// Err returns the error that terminated the union early, if any — today
// that is disk trouble on the spilled dedup path. A nil Err after Next
// reports exhaustion means the union completed (or was cancelled).
func (u *Union) Err() error { return u.err }

// Spilled reports whether the dedup set migrated to disk.
func (u *Union) Spilled() bool {
	if s, ok := u.seen.(*spillingSet); ok {
		return s.spilled
	}
	return false
}

// Stats returns the executor's counters (workers, tasks run, steals,
// splits); the inline source has none and reports the zero Stats.
func (u *Union) Stats() exec.Stats {
	if u.ex == nil {
		return exec.Stats{}
	}
	return u.ex.Stats()
}

// Pulled returns the number of task results consumed so far.
func (u *Union) Pulled() int { return u.pulled }

// Duplicates returns the number of task results suppressed so far.
func (u *Union) Duplicates() int { return u.duplicates }

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
