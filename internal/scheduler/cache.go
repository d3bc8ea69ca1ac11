package scheduler

import (
	"context"
	"fmt"
	"sync"
	"time"

	"legion/internal/loid"
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
//
// The cache also keeps each class's implementation query, keyed by
// class, under the same TTL and the same single fetch. A class's
// implementations are fixed when it is built, and the only use of its
// get_implementations reply is the key of its host entry, so a warm
// placement asks the class nothing and its first call is
// make_reservations, a Figure 3 step. Stats counts Collection fetches
// alone.
type HostCache struct {
	clock vclock.Clock
	ttl   time.Duration

	mu      sync.Mutex
	hosts   table[string, hostCacheEntry] // by Collection query
	classes table[loid.LOID, string]      // a class's implementation query
}

type hostCacheEntry struct {
	hosts   []HostInfo
	usable  []HostInfo // hosts filtered through usable(), computed once at fill
	skipped int
}

// table is one kind of entry: the live ones by key, the fetches in
// progress, and how its lookups were answered. The HostCache's mutex
// guards it.
type table[K comparable, V any] struct {
	entries      map[K]timed[V]
	flights      map[K]*flight[V] // the fetch in progress for a key, if any
	hits, misses int64
}

type timed[V any] struct {
	v       V
	fetched time.Time
}

func newTable[K comparable, V any]() table[K, V] {
	return table[K, V]{entries: make(map[K]timed[V]), flights: make(map[K]*flight[V])}
}

// flight is one fetch in progress. Its leader sets v and err, then
// releases done; followers read them after waiting. done is a Group of
// the cache's clock: under vclock.Virtual a bare channel or sync.Cond
// would park a registered goroutine where the engine cannot see it.
type flight[V any] struct {
	done vclock.Group
	v    V
	err  error
}

// NewHostCache creates a cache whose entries expire ttl after they were
// fetched, measured on clock (nil means the wall clock).
func NewHostCache(clock vclock.Clock, ttl time.Duration) *HostCache {
	return &HostCache{
		clock:   vclock.Default(clock),
		ttl:     ttl,
		hosts:   newTable[string, hostCacheEntry](),
		classes: newTable[loid.LOID, string](),
	}
}

// live reports whether an entry fetched at fetched is still served at
// now: the one TTL comparison.
func (c *HostCache) live(fetched, now time.Time) bool {
	return now.Sub(fetched) < c.ttl
}

// lookup returns the live entry for key, or fills it: the one cache
// lookup. Of the callers that find no live entry, one calls fetch and
// the others wait for it — a hit is any answer served without a fetch
// of its own, a miss is a fetch issued. A host entry's slices are
// shared across every caller in the TTL window and are read-only.
//
// A waiter whose own ctx ends returns its own error. A failed fetch is
// the leader's failure alone (its deadline, its cancellation) and is
// never stored: its waiters go round again and one of them fetches.
func (t *table[K, V]) lookup(ctx context.Context, c *HostCache, key K, fetch func() (V, error)) (V, error) {
	for {
		now := c.clock.Now()
		c.mu.Lock()
		if e, ok := t.entries[key]; ok && c.live(e.fetched, now) {
			t.hits++
			c.mu.Unlock()
			return e.v, nil
		}
		f := t.flights[key]
		if f == nil {
			f = &flight[V]{done: c.clock.NewGroup()}
			f.done.Add(1)
			t.flights[key] = f
			t.misses++
			c.mu.Unlock()
			v, err := fetch()
			t.land(c, key, f, v, err)
			return f.v, f.err
		}
		c.mu.Unlock()
		if err := f.done.Wait(ctx); err != nil {
			var zero V
			return zero, fmt.Errorf("scheduler: waiting on a shared fetch: %w", err)
		}
		if f.err == nil {
			c.mu.Lock()
			t.hits++
			c.mu.Unlock()
			return f.v, nil
		}
	}
}

// land ends a flight: it records the outcome for the waiters, stores a
// fetched value for the callers to come, and releases the waiters.
//
// Storing sweeps out every expired entry of both tables first. Without
// the sweep, entries are only ever overwritten (same key), so a workload
// whose query strings vary — per-class filters, per-tenant predicates —
// leaks one parsed fleet snapshot per distinct string forever. Sweeping
// here keeps each map bounded by the number of keys live within one TTL,
// at O(entries) per fill; fills happen at most once per TTL per key, so
// the sweep never dominates the fetch it rides on.
func (t *table[K, V]) land(c *HostCache, key K, f *flight[V], v V, err error) {
	now := c.clock.Now()
	c.mu.Lock()
	delete(t.flights, key)
	f.v, f.err = v, err
	if err == nil {
		c.hosts.sweep(c, now)
		c.classes.sweep(c, now)
		t.entries[key] = timed[V]{v: v, fetched: now}
	}
	c.mu.Unlock()
	f.done.Done()
}

// sweep deletes the entries that are no longer live at now.
func (t *table[K, V]) sweep(c *HostCache, now time.Time) {
	for k, e := range t.entries {
		if !c.live(e.fetched, now) {
			delete(t.entries, k)
		}
	}
}

// Stats reports the cache's Collection hits and misses since creation:
// a miss is a query issued, a hit a snapshot served without issuing one.
// Class entries are not counted.
func (c *HostCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hosts.hits, c.hosts.misses
}
