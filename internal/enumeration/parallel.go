package enumeration

import (
	"context"

	"repro/internal/database"
	"repro/internal/exec"
)

// DefaultBatchSize is the per-worker batch size used when a caller passes a
// non-positive size: large enough to amortize channel synchronization, small
// enough to keep answers flowing early.
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

// UnionOptions tunes a ParallelUnion merge.
type UnionOptions struct {
	// BatchSize is the per-worker batch size; ≤ 0 selects DefaultBatchSize.
	BatchSize int
	// SizeHint pre-sizes the dedup set to the expected number of distinct
	// answers, so the hot merge path never pays a growth rehash. ≤ 0 means
	// unknown; hints above MaxSizeHint are clamped.
	SizeHint int
	// Disjoint promises that the branches are pairwise disjoint and
	// individually duplicate-free (e.g. root-range splits of one CDY plan).
	// The merge then skips deduplication entirely: answers pass straight
	// from the branch batches to the consumer, and returned tuples are
	// stable views into the batch buffers.
	Disjoint bool
	// Workers bounds the executor's worker pool; ≤ 0 selects GOMAXPROCS.
	Workers int
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

// ParallelUnion enumerates the union of several branch tasks with global
// deduplication, draining them on the work-stealing executor
// (internal/exec): a bounded worker pool pulls answers in batches, stealing
// and re-splitting tasks so a single heavy branch decomposes across
// workers instead of serialising on one. The consuming side merges batches
// through a shared TupleSet, so synchronization costs are paid per batch
// while deduplication stays exact. Answer order is nondeterministic across
// runs, but the answer set equals the sequential union's.
//
// With UnionOptions.Disjoint the dedup layer is bypassed: each branch
// answer is emitted exactly once, which is correct precisely when the
// branches are pairwise disjoint and duplicate-free.
//
// Like all iterators in this package, a ParallelUnion is single-use and its
// Next/Close methods are not safe for concurrent use. Draining to
// exhaustion releases the workers automatically; abandoning a partially
// drained union requires Close (or cancelling the construction context),
// which propagates into the executor and stops every worker within one
// batch.
type ParallelUnion struct {
	arity    int
	disjoint bool
	ex       *exec.Executor

	seen dedupSet
	cur  exec.Batch
	pos  int

	closed bool
	err    error
	// Stats.
	pulled     int
	duplicates int
}

// NewParallelUnion starts a union over branch iterators. arity is the
// common answer arity of the branches (zero is allowed: nullary answers are
// counted, not stored). batchSize ≤ 0 selects DefaultBatchSize.
func NewParallelUnion(arity, batchSize int, its ...Iterator) *ParallelUnion {
	return NewParallelUnionOpts(arity, UnionOptions{BatchSize: batchSize}, its...)
}

// NewParallelUnionOpts starts a union over branch iterators with explicit
// merge options. Each iterator becomes one (indivisible) executor task;
// callers with splittable work should build exec.Tasks directly and use
// NewParallelUnionTasks.
func NewParallelUnionOpts(arity int, opts UnionOptions, its ...Iterator) *ParallelUnion {
	return NewParallelUnionCtx(context.Background(), arity, opts, its...)
}

// NewParallelUnionCtx is NewParallelUnionOpts with a cancellation context:
// when ctx is done the executor's workers stop within one batch, whether or
// not the consumer ever calls Close.
func NewParallelUnionCtx(ctx context.Context, arity int, opts UnionOptions, its ...Iterator) *ParallelUnion {
	tasks := make([]exec.Task, len(its))
	for i, it := range its {
		tasks[i] = TaskOf(it)
	}
	return NewParallelUnionTasks(ctx, arity, opts, tasks)
}

// NewParallelUnionTasks starts a union over executor tasks — the full
// work-stealing path: tasks that implement Split (root-range slices of a
// CDY plan) are re-split when stolen and shed work to idle workers, so
// output skew inside one branch no longer serialises on one goroutine.
func NewParallelUnionTasks(ctx context.Context, arity int, opts UnionOptions, tasks []exec.Task) *ParallelUnion {
	u := &ParallelUnion{
		arity:    arity,
		disjoint: opts.Disjoint,
	}
	if !opts.Disjoint {
		hint := opts.SizeHint
		if hint < 0 {
			hint = 0
		}
		if hint > MaxSizeHint {
			hint = MaxSizeHint
		}
		if opts.SpillBudget > 0 {
			u.seen = newSpillingSet(opts.SpillDir, arity, opts.SpillBudget, hint)
		} else {
			valueHint := hint * arity
			if valueHint > maxPreallocValues {
				valueHint = maxPreallocValues
			}
			u.seen = memSet{database.NewTupleSetSized(hint, valueHint)}
		}
	}
	u.ex = exec.Run(ctx, exec.Options{
		Workers:   opts.Workers,
		BatchSize: opts.BatchSize,
		Arity:     arity,
	}, tasks)
	return u
}

// Next implements Iterator: duplicate-free, arrival order. Returned tuples
// are stable views owned by the union: arena entries of the dedup set, or,
// in disjoint mode, slices of the (never recycled) batch buffers.
func (u *ParallelUnion) Next() (database.Tuple, bool) {
	if u.closed {
		return nil, false
	}
	for {
		for u.pos < u.cur.N {
			var t database.Tuple
			if u.arity > 0 {
				off := u.pos * u.arity
				t = database.Tuple(u.cur.Vals[off : off+u.arity])
			} else {
				t = database.Tuple{}
			}
			u.pos++
			u.pulled++
			if u.disjoint {
				return t, true
			}
			stored, fresh, err := u.seen.InsertGet(t)
			if err != nil {
				// A spill failure poisons the union: dedup state is gone, so
				// continuing could emit duplicates. Surface it via Err.
				u.err = err
				u.Close()
				return nil, false
			}
			if fresh {
				return stored, true
			}
			u.duplicates++
		}
		// Batch fully merged into the dedup arena: recycle its buffer. In
		// disjoint mode emitted tuples are views into the buffer, so it must
		// stay untouched; workers then always allocate fresh buffers.
		if u.cur.Vals != nil {
			if !u.disjoint {
				u.ex.Recycle(u.cur.Vals)
			}
			u.cur = exec.Batch{}
		}
		b, ok := <-u.ex.C()
		if !ok {
			u.Close()
			return nil, false
		}
		u.cur = b
		u.pos = 0
	}
}

// Close releases the executor's workers, blocking until every one has
// exited — at most one in-flight batch later. It is idempotent, runs
// automatically when the stream is drained to exhaustion, and must be
// called explicitly when abandoning a partially drained union (e.g. after
// an answer limit) unless the construction context is cancelled instead.
// After Close, Next reports exhaustion.
func (u *ParallelUnion) Close() {
	if u.closed {
		return
	}
	u.closed = true
	u.ex.Close()
	if u.seen != nil {
		u.seen.Close()
	}
}

// Err returns the error that terminated the union early, if any — today
// that is disk trouble on the spilled dedup path. A nil Err after Next
// reports exhaustion means the union completed.
func (u *ParallelUnion) Err() error { return u.err }

// Spilled reports whether the dedup set migrated to disk.
func (u *ParallelUnion) Spilled() bool {
	if s, ok := u.seen.(*spillingSet); ok {
		return s.spilled
	}
	return false
}

// Stats returns the underlying executor's counters (workers, tasks run,
// steals, splits).
func (u *ParallelUnion) Stats() exec.Stats { return u.ex.Stats() }

// Pulled returns the number of branch results consumed so far.
func (u *ParallelUnion) Pulled() int { return u.pulled }

// Duplicates returns the number of branch results suppressed so far.
func (u *ParallelUnion) Duplicates() int { return u.duplicates }

// UnionAllParallel enumerates the union of several iterators of the given
// answer arity with global deduplication on the work-stealing executor; it
// is the concurrent counterpart of UnionAll. batchSize ≤ 0 selects
// DefaultBatchSize.
func UnionAllParallel(arity, batchSize int, its ...Iterator) *ParallelUnion {
	return NewParallelUnion(arity, batchSize, its...)
}

// iterTask adapts a plain branch iterator to the executor's Task
// interface as one indivisible unit of work.
type iterTask struct{ it Iterator }

func (t iterTask) NextBatch(buf []database.Value, max int) ([]database.Value, int) {
	return NextBatch(t.it, buf, max)
}

func (t iterTask) Split() exec.Task { return nil }

// TaskOf wraps an iterator as an indivisible executor task. Work that can
// be divided (plan root ranges, slices) should implement exec.Task
// directly so the executor can steal and re-split it.
func TaskOf(it Iterator) exec.Task { return iterTask{it: it} }
