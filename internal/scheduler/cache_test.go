package scheduler

import (
	"context"
	"fmt"
	"testing"
	"time"

	"legion/internal/vclock"
)

// TestHostCacheEvictsExpiredEntries regresses the unbounded-growth leak:
// expired entries were only ever overwritten by a put of the same query
// string or mass-dropped by Invalidate, so a workload with varying query
// strings (per-class filters, per-tenant predicates) grew the map by one
// dead fleet snapshot per distinct string forever. put must sweep them.
func TestHostCacheEvictsExpiredEntries(t *testing.T) {
	vc := vclock.NewVirtual()
	c := NewHostCache(vc, 10*time.Second)
	vc.Run(func() {
		ctx := context.Background()
		for i := 0; i < 100; i++ {
			c.put(fmt.Sprintf("defined($host_load) and $gen == %d", i), nil, 0)
		}
		if n := c.Len(); n != 100 {
			t.Errorf("live entries = %d, want 100", n)
		}
		_ = vc.Sleep(ctx, 11*time.Second)
		// All 100 are now expired; the next put must sweep every one.
		c.put("defined($host_load)", nil, 0)
		if n := c.Len(); n != 1 {
			t.Errorf("entries after expiry sweep = %d, want 1", n)
		}
		if ev := c.Evicted(); ev != 100 {
			t.Errorf("evicted = %d, want 100", ev)
		}
		// A live entry must survive an unrelated put.
		_ = vc.Sleep(ctx, time.Second)
		c.put("other", nil, 0)
		if n := c.Len(); n != 2 {
			t.Errorf("entries with live neighbor = %d, want 2", n)
		}
		if _, ok := c.get("defined($host_load)"); !ok {
			t.Error("live entry evicted early")
		}
	})
}
