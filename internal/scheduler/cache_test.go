package scheduler

import (
	"context"
	"fmt"
	"testing"
	"time"

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
			c.snapshot(ctx, query, func() ([]HostInfo, int, error) { fetches++; return nil, 0, nil })
		}
		for i := 0; i < 100; i++ {
			put(fmt.Sprintf("defined($host_load) and $gen == %d", i))
		}
		if n := len(c.entries); n != 100 {
			t.Errorf("live entries = %d, want 100", n)
		}
		_ = vc.Sleep(ctx, 11*time.Second)
		// All 100 are now expired; the next fill must sweep every one.
		put("defined($host_load)")
		if n := len(c.entries); n != 1 {
			t.Errorf("entries after expiry sweep = %d, want 1", n)
		}
		if ev := c.Evicted(); ev != 100 {
			t.Errorf("evicted = %d, want 100", ev)
		}
		// A live entry must survive an unrelated fill.
		_ = vc.Sleep(ctx, time.Second)
		put("other")
		if n := len(c.entries); n != 2 {
			t.Errorf("entries with live neighbor = %d, want 2", n)
		}
		if put("defined($host_load)"); fetches != 102 {
			t.Errorf("%d fetches, want 102: live entry evicted early", fetches)
		}
	})
}
