// Package vcache provides the concurrency-safe LRU cache with in-flight
// miss coalescing shared by the server's prepared-plan cache and the
// catalog's bind cache. Both caches hold the expensive half of a planning
// split — instance-independent preparation in one, per-instance Theorem 12
// preprocessing in the other — and both need the same policy: bounded
// entries with LRU eviction, and coalescing so a thundering herd of
// identical cold requests fills each entry exactly once. Both are keyed by
// content, so an entry cannot go stale and nothing expires by time.
package vcache

import (
	"container/list"
	"sync"
)

// Cache is a concurrency-safe string-keyed cache of V values with LRU
// capacity eviction and in-flight miss coalescing.
// The zero value is not usable; create with New.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	inflight map[string]*flight[V]

	hits      int64
	misses    int64
	evictions int64
}

// entry is one cached value.
type entry[V any] struct {
	key string
	val V
}

// flight is an in-progress fill other callers can wait on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
	// doomed is set (under the cache mutex) by a DeleteFunc whose predicate
	// matched this fill's key while it was still running: the key was
	// invalidated mid-flight, so the completed value is handed to the
	// waiters but not cached — caching it would pin an entry no future
	// lookup can legitimately hit.
	doomed bool
}

// New builds a cache holding at most capacity values (minimum 1).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		inflight: make(map[string]*flight[V]),
	}
}

// Get returns the value for key, calling fill on a miss and caching its
// result. The returned bool reports whether the call was served without
// running fill (a hit, including joining another caller's in-flight fill).
// Failed fills are not cached.
func (c *Cache[V]) Get(key string, fill func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		val := el.Value.(*entry[V]).val
		c.mu.Unlock()
		return val, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-fl.done
		return fl.val, true, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = fl
	c.misses++
	c.mu.Unlock()

	fl.val, fl.err = fill()
	close(fl.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil && !fl.doomed {
		c.entries[key] = c.order.PushFront(&entry[V]{key: key, val: fl.val})
		for c.order.Len() > c.capacity {
			last := c.order.Back()
			c.order.Remove(last)
			delete(c.entries, last.Value.(*entry[V]).key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	return fl.val, false, fl.err
}

// DeleteFunc removes every cached entry whose key satisfies pred and
// returns how many were removed (counted as evictions). An in-flight fill
// whose key matches is doomed: it still completes and serves the callers
// already waiting on it, but its result is dropped instead of cached —
// the deletion said the key's value is no longer valid, so letting a
// slow fill reinsert it afterwards would pin a stale entry in the LRU
// that no future lookup can hit.
func (c *Cache[V]) DeleteFunc(pred func(key string) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry[V]); pred(e.key) {
			c.order.Remove(el)
			delete(c.entries, e.key)
			c.evictions++
			n++
		}
		el = next
	}
	for key, fl := range c.inflight {
		if pred(key) {
			fl.doomed = true
		}
	}
	return n
}

// Stats is a point-in-time snapshot of the cache counters. Every Get is
// counted as exactly one hit or miss. The JSON names are the wire shape of
// the server's /stats.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.order.Len(),
		Capacity:  c.capacity,
	}
}
