package server

import (
	"strings"
	"sync"

	"repro/internal/obs"
)

// resultCache is an LRU cache of completed placement results, keyed by
// PlaceSpec.cacheKey. It makes repeated expensive queries O(1): the job
// API answers a cache hit inline instead of enqueueing a duplicate job.
type resultCache struct {
	mu      sync.Mutex
	entries *lruMap[string, *PlaceResult]
	// fleet is the ledger row invalidations are recorded on.
	fleet *obs.TenantCounters
}

func newResultCache(capacity int, fleet *obs.TenantCounters) *resultCache {
	return &resultCache{entries: newLRUMap[string, *PlaceResult](capacity), fleet: fleet}
}

// get returns a copy of the cached result with Cached set. Hits and
// misses are the caller's to count, on the requesting tenant's row, for
// client-visible lookups only (runShared's dedup re-check is not one).
func (c *resultCache) get(key string) (*PlaceResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cached, ok := c.entries.get(key)
	if !ok {
		return nil, false
	}
	res := *cached
	res.Cached = true
	return &res, true
}

// put stores a result, evicting the least-recently-used entry beyond
// capacity.
func (c *resultCache) put(key string, res *PlaceResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.put(key, res)
}

// invalidateGraph drops every cached placement for the graph — keys are
// "graphID|..." — returning the number invalidated. PATCHed graphs call
// this so no stale placement survives a mutation.
func (c *resultCache) invalidateGraph(graphID string) int {
	prefix := graphID + "|"
	c.mu.Lock()
	n := c.entries.deleteMatching(func(k string) bool {
		return strings.HasPrefix(k, prefix)
	})
	c.mu.Unlock()
	c.fleet.Add(obs.CacheInvalidations, int64(n))
	return n
}

// len returns the number of cached results.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.len()
}
