package scheduler

import (
	"context"
	"fmt"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/vclock"
)

// TestHostCacheEvictsExpiredEntries regresses the unbounded-growth leak:
// expired entries were only ever overwritten by a fill of the same query
// string, so a workload with varying query
// strings (per-class filters, per-tenant predicates) grew the map by one
// dead fleet snapshot per distinct string forever. A fill must sweep them.
func TestHostCacheEvictsExpiredEntries(t *testing.T) {
	vc := vclock.NewVirtual()
	c := NewHostCache(vc, 10*time.Second)
	vc.Run(func() {
		ctx := context.Background()
		fetches := 0
		put := func(query string) {
			c.hosts.lookup(ctx, c, query, func() (hostCacheEntry, error) { fetches++; return hostCacheEntry{}, nil })
		}
		for i := 0; i < 100; i++ {
			put(fmt.Sprintf("defined($host_load) and $gen == %d", i))
		}
		if n := len(c.hosts.entries); n != 100 {
			t.Errorf("live entries = %d, want 100", n)
		}
		_ = vc.Sleep(ctx, 11*time.Second)
		// All 100 are now expired; the next fill must sweep every one.
		put("defined($host_load)")
		if n := len(c.hosts.entries); n != 1 {
			t.Errorf("entries after expiry sweep = %d, want 1", n)
		}
		// A live entry must survive an unrelated fill.
		_ = vc.Sleep(ctx, time.Second)
		put("other")
		if n := len(c.hosts.entries); n != 2 {
			t.Errorf("entries with live neighbor = %d, want 2", n)
		}
		if put("defined($host_load)"); fetches != 102 {
			t.Errorf("%d fetches, want 102: live entry evicted early", fetches)
		}
	})
}

// TestHostCacheTTLBoundary: an entry is served up to, and not at, ttl
// after its fetch. Read 1 ns earlier it is served; read at exactly ttl it
// is fetched again, and a fill at that instant sweeps it out. Host
// snapshots and class entries follow the one rule.
func TestHostCacheTTLBoundary(t *testing.T) {
	const ttl = 10 * time.Second
	vc := vclock.NewVirtual()
	c := NewHostCache(vc, ttl)
	vc.Run(func() {
		ctx := context.Background()
		hostFetches, classFetches := map[string]int{}, map[loid.LOID]int{}
		snapshot := func(query string) {
			c.hosts.lookup(ctx, c, query, func() (hostCacheEntry, error) { hostFetches[query]++; return hostCacheEntry{}, nil })
		}
		impls := func(class loid.LOID) {
			c.classes.lookup(ctx, c, class, func() (string, error) { classFetches[class]++; return "defined($host_arch)", nil })
		}
		worker := loid.LOID{Domain: "uva", Class: "WorkerClass", Instance: 1}
		stale := loid.LOID{Domain: "uva", Class: "StaleClass", Instance: 2}
		snapshot("a")
		snapshot("stale")
		impls(worker)
		impls(stale)

		_ = vc.Sleep(ctx, ttl-time.Nanosecond)
		snapshot("a")
		impls(worker)
		if hostFetches["a"] != 1 || classFetches[worker] != 1 {
			t.Errorf("1 ns before the TTL: fetched %d and %d times, want 1 and 1", hostFetches["a"], classFetches[worker])
		}
		snapshot("x") // a fill 1 ns before the TTL sweeps nothing
		if len(c.hosts.entries) != 3 || len(c.classes.entries) != 2 {
			t.Errorf("1 ns before the TTL: %d host and %d class entries, want 3 and 2", len(c.hosts.entries), len(c.classes.entries))
		}

		_ = vc.Sleep(ctx, time.Nanosecond)
		snapshot("a") // its fill sweeps "stale" and the stale class
		impls(worker)
		if hostFetches["a"] != 2 || classFetches[worker] != 2 {
			t.Errorf("at the TTL: fetched %d and %d times, want 2 and 2", hostFetches["a"], classFetches[worker])
		}
		if len(c.hosts.entries) != 2 || len(c.classes.entries) != 1 {
			t.Errorf("at the TTL: %d host and %d class entries, want 2 (a, x) and 1", len(c.hosts.entries), len(c.classes.entries))
		}
	})
}
