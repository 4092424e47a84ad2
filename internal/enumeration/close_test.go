package enumeration

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/database"
)

// slowInfinite yields an endless stream so the wrapped executor-backed
// Union's workers only exit when released.
type slowInfinite struct{ i int64 }

func (s *slowInfinite) Next() (database.Tuple, bool) {
	s.i++
	return database.Tuple{database.V(s.i)}, true
}

// TestCloseForwardsThroughWrappers pins the wrapper contract: closing the
// outermost iterator of a Union / AlgorithmOne stack releases an
// executor-backed union nested anywhere inside it — a Union forwards Close
// to its unfinished tasks, at either source. Before Close forwarding,
// CloseAnswers only saw the outermost Close and the nested workers leaked.
func TestCloseForwardsThroughWrappers(t *testing.T) {
	baseline := runtime.NumGoroutine()

	builds := []struct {
		name string
		make func(inner Iterator) Iterator
	}{
		{"cheater", func(inner Iterator) Iterator {
			return unionOf(1, UnionOptions{}, inner)
		}},
		{"cheater-not-yet-reached", func(inner Iterator) Iterator {
			return unionOf(1, UnionOptions{}, NewSliceIterator(mkTuples(-5, 5)), inner)
		}},
		{"cheater-on-executor", func(inner Iterator) Iterator {
			return unionOf(1, UnionOptions{Workers: 2, BatchSize: 4}, inner, NewSliceIterator(nil))
		}},
		{"algorithm-one", func(inner Iterator) Iterator {
			return NewAlgorithmOne(inner, nopTestable{})
		}},
	}
	for _, b := range builds {
		inner := unionOf(1, UnionOptions{Workers: 1, BatchSize: 4}, &slowInfinite{})
		it := b.make(inner)
		if _, ok := it.Next(); !ok {
			t.Fatalf("%s: no first answer", b.name)
		}
		CloseIterator(it)
		if _, ok := inner.Next(); ok {
			t.Errorf("%s: nested union still live after outer Close", b.name)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("nested workers leaked: %d goroutines vs %d at baseline",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// nopTestable is an empty Q2 stream for the AlgorithmOne wrapper.
type nopTestable struct{}

func (nopTestable) Next() (database.Tuple, bool) { return nil, false }
func (nopTestable) Contains(database.Tuple) bool { return false }
