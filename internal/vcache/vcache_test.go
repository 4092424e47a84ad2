package vcache

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fillConst returns a fill function producing v and counting its calls.
func fillConst(v int, calls *int32) func() (int, error) {
	return func() (int, error) {
		atomic.AddInt32(calls, 1)
		return v, nil
	}
}

func TestGetHitMissEvict(t *testing.T) {
	c := New[int](2)
	var calls int32
	got, hit, err := c.Get("a", fillConst(1, &calls))
	if err != nil || hit || got != 1 {
		t.Fatalf("first get: %d hit=%v err=%v", got, hit, err)
	}
	got, hit, _ = c.Get("a", fillConst(99, &calls))
	if !hit || got != 1 {
		t.Fatalf("second get: %d hit=%v", got, hit)
	}
	c.Get("b", fillConst(2, &calls))
	c.Get("a", fillConst(99, &calls)) // touch a: recency a > b
	c.Get("c", fillConst(3, &calls))  // evicts b
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 || st.Capacity != 2 {
		t.Errorf("stats = %+v", st)
	}
	if _, hit, _ := c.Get("b", fillConst(2, &calls)); hit {
		t.Error("b should have been evicted")
	}
	if calls != 4 {
		t.Errorf("fill ran %d times, want 4 (a, b, c, b-again)", calls)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New[int](4)
	boom := errors.New("boom")
	_, hit, err := c.Get("k", func() (int, error) { return 0, boom })
	if !errors.Is(err, boom) || hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	got, hit, err := c.Get("k", func() (int, error) { return 7, nil })
	if err != nil || hit || got != 7 {
		t.Fatalf("retry after error: %d hit=%v err=%v", got, hit, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Size != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCoalescesConcurrentMisses(t *testing.T) {
	c := New[int](4)
	var calls int32
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	hits := int32(0)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, hit, err := c.Get("k", func() (int, error) {
				atomic.AddInt32(&calls, 1)
				<-release
				return 42, nil
			})
			if err != nil || got != 42 {
				t.Errorf("got %d err %v", got, err)
			}
			if hit {
				atomic.AddInt32(&hits, 1)
			}
		}()
	}
	// Let the herd pile up on the flight, then release the one fill.
	for {
		c.mu.Lock()
		inflight := len(c.inflight)
		c.mu.Unlock()
		if inflight == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Errorf("fill ran %d times, want 1", calls)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

// TestDeleteFuncDoomsInflight pins the purge/fill race fix: a DeleteFunc
// whose predicate matches a fill still in flight must keep that fill's
// result out of the cache. Before the fix, the completed fill reinserted
// an entry for the purged key — a dead version no lookup could ever hit
// again — pinning it in the LRU until capacity eviction.
func TestDeleteFuncDoomsInflight(t *testing.T) {
	c := New[int](8)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, hit, err := c.Get("ds|v1", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		// The waiter is still served its value; only caching is dropped.
		if got != 7 || hit || err != nil {
			t.Errorf("doomed fill returned got=%d hit=%v err=%v", got, hit, err)
		}
	}()
	<-started
	// The purge races the fill and must doom it, even though there is no
	// cached entry to remove yet.
	if n := c.DeleteFunc(func(k string) bool { return k == "ds|v1" }); n != 0 {
		t.Fatalf("deleted %d cached entries, want 0 (fill was in flight)", n)
	}
	close(release)
	<-done
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("purged-while-filling key was cached anyway: %+v", st)
	}
	// The next Get is a genuine miss, not a stale hit.
	var calls int32
	if _, hit, _ := c.Get("ds|v1", fillConst(9, &calls)); hit || calls != 1 {
		t.Fatalf("lookup after doomed fill: hit=%v calls=%d, want a fresh miss", hit, calls)
	}
}

// TestDeleteFuncSparesUnmatchedInflight checks dooming is keyed: a purge of
// one prefix leaves unrelated in-flight fills cacheable.
func TestDeleteFuncSparesUnmatchedInflight(t *testing.T) {
	c := New[int](8)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Get("ds2|v1", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	c.DeleteFunc(func(k string) bool { return strings.HasPrefix(k, "ds1|") })
	close(release)
	<-done
	if st := c.Stats(); st.Size != 1 {
		t.Fatalf("unmatched in-flight fill was not cached: %+v", st)
	}
}

func TestDeleteFunc(t *testing.T) {
	c := New[int](8)
	var calls int32
	c.Get("ds1|v1|q1", fillConst(1, &calls))
	c.Get("ds1|v1|q2", fillConst(2, &calls))
	c.Get("ds2|v1|q1", fillConst(3, &calls))
	if n := c.DeleteFunc(func(k string) bool { return strings.HasPrefix(k, "ds1|") }); n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	st := c.Stats()
	if st.Size != 1 || st.Evictions != 2 {
		t.Errorf("stats = %+v", st)
	}
	if _, hit, _ := c.Get("ds2|v1|q1", fillConst(3, &calls)); !hit {
		t.Error("untouched key should still hit")
	}
	if _, hit, _ := c.Get("ds1|v1|q1", fillConst(1, &calls)); hit {
		t.Error("deleted key should miss")
	}
}
