package scheduler

import (
	"sync"
	"time"

	"legion/internal/vclock"
)

// HostCache memoizes parsed Collection query results for a bounded
// lifetime.
//
// Every Generate run issues one Collection query per requested class and
// parses every matching record into a HostInfo. At metasystem scale that
// is the placement pipeline's dominant cost: a 100k-host directory means
// 100k records fetched, parsed, and sorted per placement, so an open-loop
// driver offering a million placements would touch 10^11 records. The
// paper's own schedulers tolerate stale resource information by design —
// "the resource management framework makes no guarantee that the
// information is current" (§3.2) — which is exactly the license a TTL
// cache needs: within the TTL all placements share one parsed snapshot,
// and staleness is bounded by the same figure the Collection's own pull
// interval already imposes.
//
// The cached slices are handed out shared and are read-only. That is
// enforced by construction, not convention: generators reach them only
// through candidates, and the only way to reorder candidates is
// ordered(), which sorts a list of pointers into the view and never the
// view (TestSharedViewReadOnly hammers this under -race). Time comes
// from the supplied Clock, so under a virtual clock the TTL expires in
// virtual time along with everything else.
type HostCache struct {
	clock vclock.Clock
	ttl   time.Duration

	mu      sync.Mutex
	entries map[string]hostCacheEntry

	hits, misses, evicted int64
}

type hostCacheEntry struct {
	hosts   []HostInfo
	usable  []HostInfo // hosts filtered through usable(), computed once at fill
	skipped int
	fetched time.Time
}

// NewHostCache creates a cache whose entries expire ttl after they were
// fetched, measured on clock (nil means the wall clock).
func NewHostCache(clock vclock.Clock, ttl time.Duration) *HostCache {
	return &HostCache{
		clock:   vclock.Default(clock),
		ttl:     ttl,
		entries: make(map[string]hostCacheEntry),
	}
}

// get returns the live entry for the query, if any — the one cache
// lookup. Both of the entry's slices are shared across every caller in
// the TTL window and are read-only: candidates hands out the usable view
// for generators to index or copy from, never to reorder.
func (c *HostCache) get(query string) (hostCacheEntry, bool) {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[query]
	if !ok || now.Sub(e.fetched) >= c.ttl {
		c.misses++
		return hostCacheEntry{}, false
	}
	c.hits++
	return e, true
}

// put stores a freshly fetched result and returns its entry (the usable
// view is filtered once, here), first sweeping out every expired entry.
// Without the sweep, entries are only ever overwritten (same query
// string) or mass-dropped by Invalidate, so a workload whose query
// strings vary — per-class filters, per-tenant predicates — leaks one
// parsed fleet snapshot per distinct string forever. Sweeping here keeps
// the map bounded by the number of query shapes live within one TTL, at
// O(entries) per put; puts happen at most once per TTL per shape, so the
// sweep never dominates the fetch it rides on.
func (c *HostCache) put(query string, hosts []HostInfo, skipped int) hostCacheEntry {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for q, e := range c.entries {
		if now.Sub(e.fetched) >= c.ttl {
			delete(c.entries, q)
			c.evicted++
		}
	}
	e := hostCacheEntry{
		hosts: hosts, usable: usable(hosts),
		skipped: skipped, fetched: now,
	}
	c.entries[query] = e
	return e
}

// Invalidate drops every entry, forcing the next query of each shape to
// refetch. Drivers call it after events that change the fleet (hosts
// added, mass load shifts) when they cannot wait out the TTL.
func (c *HostCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
}

// Stats reports cache hits and misses since creation.
func (c *HostCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len reports how many entries (live or not-yet-swept) the cache holds.
func (c *HostCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Evicted reports how many expired entries put has swept out.
func (c *HostCache) Evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}
