package server

import (
	ucq "repro"
	"repro/internal/vcache"
)

// PlanCache is a concurrency-safe LRU cache of prepared queries keyed on
// (normalized query, schema, preparation mode). It caches the
// instance-independent half of planning — redundancy removal and the
// Theorem 12 certificate search — which is exactly the work that must not
// be repeated per request; the per-instance preprocessing is served by the
// catalog's bind cache for dataset queries, and runs per request on the
// legacy inline-instance path.
//
// Concurrent misses on the same key are coalesced: one caller runs the
// preparation while the others wait for its result, so a thundering herd
// of identical cold requests plans exactly once. The key is content, so an
// entry never goes stale and nothing expires by time.
type PlanCache struct {
	c *vcache.Cache[*ucq.PreparedQuery]
}

// NewPlanCache builds a cache holding at most capacity prepared queries
// (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{c: vcache.New[*ucq.PreparedQuery](capacity)}
}

// Get returns the prepared query for key, calling prepare on a miss and
// caching its result. The returned bool reports whether the call was
// served without running prepare (a cache hit, including joining another
// caller's in-flight preparation). Failed preparations are not cached.
func (c *PlanCache) Get(key string, prepare func() (*ucq.PreparedQuery, error)) (*ucq.PreparedQuery, bool, error) {
	return c.c.Get(key, prepare)
}

// CacheStats is a point-in-time snapshot of cache counters (the wire shape
// of both the plan cache and the bind cache in /stats).
type CacheStats = vcache.Stats

// Stats snapshots the counters.
func (c *PlanCache) Stats() CacheStats { return c.c.Stats() }
