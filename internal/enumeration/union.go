package enumeration

import (
	"context"

	"repro/internal/database"
)

// DefaultBatchSize is the ceiling of the union's doubling batch schedule:
// large enough to amortize the per-batch cancellation check, small enough
// to keep answers flowing early and cancellation prompt.
const DefaultBatchSize = 256

// Task is a resumable slice of an enumeration that hands out its answers
// in flat value batches. Implementations are not safe for concurrent use.
type Task interface {
	// NextBatch appends the values of up to max answers to buf — flat, one
	// answer's values after another — and returns the extended buffer and
	// the number of answers appended. A task whose answers already sit in
	// stable flat storage may return a view of that storage instead of buf.
	// Zero answers means the task is exhausted.
	NextBatch(buf []database.Value, max int) ([]database.Value, int)
}

// Union is the engine's one merge: it enumerates the union of several
// tasks that are pairwise disjoint and individually duplicate-free — the
// member plans of a certified union, each skipping what a lower-ranked
// member contains (core's rank rule). Disjointness is the tasks' contract,
// so the merge keeps no answer set: every task answer is emitted exactly
// once, as a view into the batch it arrived in, and memory beyond the
// tasks is O(batch).
//
// The tasks run in order on the caller's goroutine: answers come in a
// deterministic order, and there is no goroutine and no channel behind the
// stream. Batches double from one answer up to DefaultBatchSize, so the
// first answer costs one tuple. The construction context is checked once
// per batch: a cancelled union ends within one batch, without an error
// (cancellation is abandonment).
//
// Like all iterators in this package, a Union is single-use and its
// Next/Batch/Close methods are not safe for concurrent use.
type Union struct {
	ctx   context.Context
	arity int

	// tasks is the unfinished remainder; Close forwards to those that are
	// Closers.
	tasks []Task
	batch int // size of the next batch

	cur []database.Value // the current batch's values
	n   int              // answers in cur
	pos int

	closed bool
}

// NewUnion builds the union of the given tasks. arity is their common
// answer arity (zero is allowed: nullary answers are counted, not stored).
// Nothing runs until the first Next.
func NewUnion(ctx context.Context, arity int, tasks []Task) *Union {
	return &Union{ctx: ctx, arity: arity, tasks: tasks, batch: 1}
}

// Next implements Iterator: every task answer once, task by task. Returned
// tuples are stable views into the (never reused) batch buffers.
func (u *Union) Next() (database.Tuple, bool) {
	for u.pos == u.n {
		if u.closed || !u.refill() {
			u.Close()
			return nil, false
		}
	}
	t := database.Tuple{}
	if u.arity > 0 {
		off := u.pos * u.arity
		t = u.cur[off : off+u.arity]
	}
	u.pos++
	return t, true
}

// Batch hands out the unconsumed rest of the current batch at once,
// refilling first when it is used up: n answers as flat values, one
// answer's values after another — the same stable views Next returns one
// by one. n == 0 means the stream has ended.
func (u *Union) Batch() ([]database.Value, int) {
	for u.pos == u.n {
		if u.closed || !u.refill() {
			u.Close()
			return nil, 0
		}
	}
	vals, n := u.cur[u.pos*u.arity:], u.n-u.pos
	u.pos = u.n
	return vals, n
}

// refill replaces the consumed batch with the next one, reporting false
// once every task is exhausted or the context cancelled. Emitted tuples
// are views into their batch, so every batch gets a fresh buffer.
func (u *Union) refill() bool {
	if u.ctx.Err() != nil {
		return false
	}
	for len(u.tasks) > 0 {
		buf, n := u.tasks[0].NextBatch(make([]database.Value, 0, u.batch*u.arity), u.batch)
		if n == 0 {
			u.tasks = u.tasks[1:]
			continue
		}
		u.cur, u.n, u.pos = buf, n, 0
		u.batch = min(2*u.batch, DefaultBatchSize)
		return true
	}
	return false
}

// Close ends the stream and releases every unfinished task that is itself
// a Closer. It is idempotent and runs automatically when the stream is
// drained to exhaustion. After Close, Next reports exhaustion.
func (u *Union) Close() {
	if u.closed {
		return
	}
	u.closed = true
	for _, t := range u.tasks {
		if c, ok := t.(Closer); ok {
			c.Close()
		}
	}
	u.tasks, u.cur, u.n, u.pos = nil, nil, 0, 0
}
