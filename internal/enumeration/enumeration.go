// Package enumeration provides the enumeration-algorithm toolkit of the
// paper's upper-bound proofs: the answer-stream Iterator abstraction; Union,
// the one merge of the engine — a concatenation of batched, pairwise
// disjoint tasks, run on the caller's goroutine; Algorithm 1 for unions of
// two tractable CQs (Theorem 4); the Cheater's Lemma (Lemma 5) as a
// step-counted simulation; and wall-clock delay instrumentation used by
// the experiment harness.
package enumeration

import (
	"iter"
	"sort"
	"time"

	"repro/internal/database"
)

// Iterator is a stream of answer tuples. Next returns the next tuple and
// true, or nil and false once exhausted. Iterators are single-use and not
// safe for concurrent use.
type Iterator interface {
	Next() (database.Tuple, bool)
}

// Testable is an iterator whose underlying answer set supports a
// constant-time membership test (free-connex CQ plans do, after their
// linear preprocessing).
type Testable interface {
	Iterator
	Contains(database.Tuple) bool
}

// Closer is an iterator that can be ended early, releasing what it holds.
// CloseIterator closes any iterator; wrapper iterators (Union over its
// tasks, AlgorithmOne) forward Close to their members so a stream nested
// inside a combinator is still closed when the outermost iterator is.
type Closer interface {
	Close()
}

// CloseIterator closes an iterator, if it is a Closer: it is safe to call
// on any iterator, and a no-op on those that are not.
func CloseIterator(it Iterator) {
	if c, ok := it.(Closer); ok {
		c.Close()
	}
}

// IterErr reports the error that terminated a stream early, if any: the
// stream's Err method, when it has one. Union cannot fail. Check it after
// the stream reports exhaustion: a non-nil error means the stream was
// truncated, not completed. Streams without an Err method report nil.
func IterErr(it any) error {
	if e, ok := it.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Func adapts a function to the Iterator interface.
type Func func() (database.Tuple, bool)

// Next implements Iterator.
func (f Func) Next() (database.Tuple, bool) { return f() }

// AlgorithmOne is the paper's Algorithm 1: enumerate Q1 ∪ Q2 for two
// tractable CQs using only constant working memory. While Q1 produces
// answers, an answer outside Q2(I) is printed directly; an answer inside
// Q2(I) is "paid for" by printing the next Q2 answer instead (which always
// exists: the branch is taken exactly |Q1(I) ∩ Q2(I)| times). When Q1 is
// done, the remaining Q2 answers are drained. Every answer is printed
// exactly once.
type AlgorithmOne struct {
	q1      Iterator
	q2      Testable
	q1Done  bool
	skipped int
}

// NewAlgorithmOne builds the union iterator. q2 must support the
// constant-time membership test over the same positional answer tuples q1
// produces.
func NewAlgorithmOne(q1 Iterator, q2 Testable) *AlgorithmOne {
	return &AlgorithmOne{q1: q1, q2: q2}
}

// Next implements Iterator.
func (a *AlgorithmOne) Next() (database.Tuple, bool) {
	for !a.q1Done {
		t, ok := a.q1.Next()
		if !ok {
			a.q1Done = true
			break
		}
		if !a.q2.Contains(t) {
			return t, true
		}
		// t will be produced by q2 eventually; print q2's next answer now.
		if u, ok2 := a.q2.Next(); ok2 {
			return u, true
		}
		// Defensive: by the Theorem 4 argument q2 cannot be exhausted here;
		// if it is (mismatched Contains), just skip t — it was already
		// printed as part of q2's stream.
		a.skipped++
	}
	return a.q2.Next()
}

// Close releases both underlying iterators' resources.
func (a *AlgorithmOne) Close() {
	CloseIterator(a.q1)
	CloseIterator(a.q2)
}

// Skipped returns how often the defensive branch fired: Q1 answers that
// Contains claimed were in Q2(I) while Q2's stream was already exhausted.
// Under a correct Testable this stays 0; a non-zero value flags a
// mismatched membership test silently dropping answers.
func (a *AlgorithmOne) Skipped() int { return a.skipped }

// Seq adapts an iterator to a Go range-over-func sequence, so callers can
// write `for t := range enumeration.Seq(it)` instead of hand-rolling the
// Next loop. The iterator is released (CloseIterator) when the sequence
// ends — by exhaustion or by an early break. Like the iterator it wraps,
// the sequence is single-use.
func Seq(it Iterator) iter.Seq[database.Tuple] {
	return func(yield func(database.Tuple) bool) {
		defer CloseIterator(it)
		for {
			t, ok := it.Next()
			if !ok {
				return
			}
			if !yield(t) {
				return
			}
		}
	}
}

// Collect drains an iterator into a slice. Ownership follows the iterator:
// Union returns stable views into its batch buffers — valid indefinitely
// but not to be mutated — and plan adapters produce fresh tuples.
func Collect(it Iterator) []database.Tuple {
	var out []database.Tuple
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// DelayStats summarises the wall-clock timing of one enumeration run.
type DelayStats struct {
	// Preprocessing is the time from Start to the first answer (or to
	// exhaustion for empty results).
	Preprocessing time.Duration
	// Count is the number of answers.
	Count int
	// MaxDelay and MeanDelay describe inter-answer gaps (excluding
	// preprocessing); P50, P95 and P99 are delay percentiles.
	MaxDelay  time.Duration
	MeanDelay time.Duration
	P50       time.Duration
	P95       time.Duration
	P99       time.Duration
	// Total is the full wall-clock time of the run.
	Total time.Duration
}

// MeasureDelays drains the iterator produced by build, timing the
// preprocessing (construction + first answer) and each inter-answer delay.
func MeasureDelays(build func() Iterator) DelayStats {
	var st DelayStats
	start := time.Now()
	it := build()
	prev := time.Now()
	first := true
	var sum time.Duration
	var delays []time.Duration
	for {
		_, ok := it.Next()
		now := time.Now()
		if !ok {
			if first {
				st.Preprocessing = now.Sub(start)
			}
			st.Total = now.Sub(start)
			break
		}
		if first {
			st.Preprocessing = now.Sub(start)
			first = false
		} else {
			d := now.Sub(prev)
			sum += d
			delays = append(delays, d)
			if d > st.MaxDelay {
				st.MaxDelay = d
			}
		}
		st.Count++
		prev = now
	}
	if len(delays) > 0 {
		st.MeanDelay = sum / time.Duration(len(delays))
		sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
		st.P50 = delays[len(delays)*50/100]
		st.P95 = delays[len(delays)*95/100]
		st.P99 = delays[len(delays)*99/100]
	}
	return st
}
