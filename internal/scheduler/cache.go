package scheduler

import (
	"context"
	"fmt"
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
//
// A cold or expired entry is fetched once, however many placements meet
// it: the first caller to miss fetches, the rest wait for that flight
// and take its entry. At 10k hosts a fetch parses 10k records, and an
// open-loop driver delivers a dozen arrivals while the first is still in
// flight; before, each of them paid for the whole fleet.
type HostCache struct {
	clock vclock.Clock
	ttl   time.Duration

	mu      sync.Mutex
	entries map[string]hostCacheEntry
	flights map[string]*flight // the fetch in progress for a query, if any

	hits, misses, evicted int64
}

type hostCacheEntry struct {
	hosts   []HostInfo
	usable  []HostInfo // hosts filtered through usable(), computed once at fill
	skipped int
	fetched time.Time
}

// flight is one fetch in progress. Its leader sets entry and err, then
// releases done; followers read them after waiting. done is a Group of
// the cache's clock: under vclock.Virtual a bare channel or sync.Cond
// would park a registered goroutine where the engine cannot see it.
type flight struct {
	done  vclock.Group
	entry hostCacheEntry
	err   error
}

// NewHostCache creates a cache whose entries expire ttl after they were
// fetched, measured on clock (nil means the wall clock).
func NewHostCache(clock vclock.Clock, ttl time.Duration) *HostCache {
	return &HostCache{
		clock:   vclock.Default(clock),
		ttl:     ttl,
		entries: make(map[string]hostCacheEntry),
		flights: make(map[string]*flight),
	}
}

// snapshot returns the live entry for the query, or fills it: the one
// cache lookup. Of the callers that find no live entry, one calls fetch
// and the others wait for it — a hit is any answer served without a
// fetch of its own, a miss is a fetch issued. Both of the entry's slices
// are shared across every caller in the TTL window and are read-only.
//
// A waiter whose own ctx ends returns its own error. A failed fetch is
// the leader's failure alone (its deadline, its cancellation): its
// waiters go round again and one of them fetches.
func (c *HostCache) snapshot(ctx context.Context, query string, fetch func() ([]HostInfo, int, error)) (hostCacheEntry, error) {
	for {
		now := c.clock.Now()
		c.mu.Lock()
		if e, ok := c.entries[query]; ok && now.Sub(e.fetched) < c.ttl {
			c.hits++
			c.mu.Unlock()
			return e, nil
		}
		f := c.flights[query]
		if f == nil {
			f = &flight{done: c.clock.NewGroup()}
			f.done.Add(1)
			c.flights[query] = f
			c.misses++
			c.mu.Unlock()
			hosts, skipped, err := fetch()
			c.land(query, f, hosts, skipped, err)
			return f.entry, f.err
		}
		c.mu.Unlock()
		if err := f.done.Wait(ctx); err != nil {
			return hostCacheEntry{}, fmt.Errorf("scheduler: waiting on a shared collection query: %w", err)
		}
		if f.err == nil {
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return f.entry, nil
		}
	}
}

// land ends a flight: it records the outcome for the waiters, stores a
// fetched result for the callers to come, and releases the waiters.
//
// The result is stored only if f is still the query's registered flight.
// Invalidate forgets the flights in progress, so a fetch that began
// before it answers the callers already waiting on it and nobody else:
// stored, it would hand the fleet from before the invalidating event to
// a whole TTL of placements.
//
// Storing sweeps out every expired entry first. Without the sweep,
// entries are only ever overwritten (same query string) or mass-dropped
// by Invalidate, so a workload whose query strings vary — per-class
// filters, per-tenant predicates — leaks one parsed fleet snapshot per
// distinct string forever. Sweeping here keeps the map bounded by the
// number of query shapes live within one TTL, at O(entries) per fill;
// fills happen at most once per TTL per shape, so the sweep never
// dominates the fetch it rides on.
func (c *HostCache) land(query string, f *flight, hosts []HostInfo, skipped int, err error) {
	now := c.clock.Now()
	c.mu.Lock()
	current := c.flights[query] == f
	if current {
		delete(c.flights, query)
	}
	f.err = err
	if err == nil {
		f.entry = hostCacheEntry{
			hosts: hosts, usable: usable(hosts),
			skipped: skipped, fetched: now,
		}
		if current {
			for q, e := range c.entries {
				if now.Sub(e.fetched) >= c.ttl {
					delete(c.entries, q)
					c.evicted++
				}
			}
			c.entries[query] = f.entry
		}
	}
	c.mu.Unlock()
	f.done.Done()
}

// Invalidate drops every entry, forcing the next query of each shape to
// refetch — with a fetch of its own, not one that was already under way.
// Drivers call it after events that change the fleet (hosts added, mass
// load shifts) when they cannot wait out the TTL.
func (c *HostCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
	clear(c.flights)
}

// Stats reports cache hits and misses since creation: a miss is a fetch
// issued, a hit an answer served without issuing one.
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

// Evicted reports how many expired entries fills have swept out.
func (c *HostCache) Evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}
