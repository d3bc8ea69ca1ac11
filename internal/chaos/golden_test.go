package chaos

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/resilient"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// TestVirtualTraceGolden pins the engine's event order to recorded
// values: a storm that takes every path the clock has — link delay,
// flaky links and their retry backoff, a dead host, and a deadline short
// enough to expire under two in five requests while calls are parked —
// must fire the same events, with the same sequence numbers at the same
// virtual instants, as it did when the digests below were recorded (the
// commit before events became values and waiters were pooled). The seeds
// are fixed, not LEGION_CHAOS_SEED: a golden value belongs to its input.
// A change that moves a digest has changed when or in what order the
// clock schedules something, and says so by editing this table.
func TestVirtualTraceGolden(t *testing.T) {
	golden := []struct {
		seed   int64
		events int
		sha256 string
	}{
		{5, 2246, "d4b815a4dd549cd4fa76ca8bcad83880ff4c7ff33528792f1e1b3689126e9dde"},
		{42, 2222, "e7c45fd344fb66a7e99ad3690b721e474d257b8188e94e99ba2235f8aa02aecb"},
		{13, 2227, "004a830b83d2f2b63a9b2b5fe7e18aaba1cf16567e965b17daec020e706403a6"},
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("seed=%d", g.seed), func(t *testing.T) {
			vc := vclock.NewVirtual()
			opts := core.Options{
				Seed:    g.seed,
				Metrics: telemetry.NewRegistry(),
				Clock:   vc,
				Retry: resilient.Policy{
					MaxAttempts: 2, BaseDelay: time.Millisecond,
					Budget: 2 * time.Second, AttemptTimeout: time.Second,
					Clock:      vc,
					JitterRand: resilient.NewLockedRand(g.seed),
				},
			}
			w, err := NewWorld(g.seed, opts, SiteSpec{Domain: "uva", Hosts: 4})
			if err != nil {
				t.Fatalf("world: %v", err)
			}
			defer w.Close()
			site := w.Sites[0]
			w.Slow(site, 2*time.Millisecond, time.Millisecond)
			w.Flaky(site.MS.Runtime(), 0.08)
			w.CrashHost(site, 1)

			vc.StartTrace()
			vc.Run(func() {
				res := w.Storm(context.Background(), site, StormConfig{
					Rate:     500,
					Duration: 300 * time.Millisecond,
					Deadline: 22 * time.Millisecond,
				})
				if res.Succeeded == 0 || res.Failed == 0 {
					t.Errorf("storm: %d succeeded, %d failed; the trace should cover both", res.Succeeded, res.Failed)
				}
				// Abandoned requests leave reservations for the reaper, so
				// the counts are not asserted; the polling is in the trace.
				w.Quiesce(site, time.Second)
			})
			// Read before Close, as TestVirtualStormDeterministicTrace does.
			trace := vc.Trace()
			sum := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(trace, "\n"))))
			if len(trace) != g.events || sum != g.sha256 {
				t.Errorf("trace: %d events, sha256 %s\n want %d events, sha256 %s",
					len(trace), sum, g.events, g.sha256)
			}
		})
	}
}
