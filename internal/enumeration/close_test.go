package enumeration

import (
	"testing"

	"repro/internal/database"
)

// endless yields an endless stream, so a union over it ends only when
// closed.
type endless struct{ i int64 }

func (s *endless) Next() (database.Tuple, bool) {
	s.i++
	return database.Tuple{database.V(s.i)}, true
}

// TestCloseForwardsThroughWrappers pins the wrapper contract: closing the
// outermost iterator of a Union / AlgorithmOne stack closes a union nested
// anywhere inside it — a Union forwards Close to its unfinished tasks,
// including ones it has not reached yet.
func TestCloseForwardsThroughWrappers(t *testing.T) {
	builds := []struct {
		name string
		make func(inner Iterator) Iterator
	}{
		{"union", func(inner Iterator) Iterator {
			return unionOf(1, inner)
		}},
		{"union-not-yet-reached", func(inner Iterator) Iterator {
			return unionOf(1, NewSliceIterator(mkTuples(-5, 5)), inner)
		}},
		{"algorithm-one", func(inner Iterator) Iterator {
			return NewAlgorithmOne(inner, nopTestable{})
		}},
	}
	for _, b := range builds {
		inner := unionOf(1, &endless{})
		it := b.make(inner)
		if _, ok := it.Next(); !ok {
			t.Fatalf("%s: no first answer", b.name)
		}
		CloseIterator(it)
		if _, ok := inner.Next(); ok {
			t.Errorf("%s: nested union still live after outer Close", b.name)
		}
	}
}

// nopTestable is an empty Q2 stream for the AlgorithmOne wrapper.
type nopTestable struct{}

func (nopTestable) Next() (database.Tuple, bool) { return nil, false }
func (nopTestable) Contains(database.Tuple) bool { return false }
