package chaos

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/resilient"
	"legion/internal/scheduler"
	"legion/internal/sim"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// storm drives an open-loop storm of uniform arrivals at the site's
// Worker class, seeded by the world seed and uncached: a storm measures
// the control plane, so every request queries the Collection.
func storm(w *World, site *Site, cfg sim.DriverConfig) *sim.DriverResult {
	class, _ := site.MS.Class("Worker")
	cfg.Arrivals = sim.Uniform
	cfg.SnapshotTTL = -1
	cfg.Seed = w.Seed()
	return sim.Drive(context.Background(), site.MS, class, cfg)
}

// TestVirtualStormDeterministicTrace is the determinism proof for the
// virtual-time mode: two back-to-back runs of the same fixed-seed storm
// must produce byte-identical event traces. Under the discrete-event
// engine execution is fully serialized — one runnable goroutine at a
// time, events fired in (time, seq) order — so every timer, retry
// backoff, link delay, and context expiry lands at the same virtual
// instant in both runs; any divergence means nondeterminism leaked into
// the pipeline (an unseeded RNG, a wall-time read, an unserialized
// wakeup).
func TestVirtualStormDeterministicTrace(t *testing.T) {
	const seed = 5
	run := func() []string {
		vc := vclock.NewVirtual()
		opts := core.Options{
			Seed:    seed,
			Metrics: telemetry.NewRegistry(),
			Clock:   vc,
			Retry: resilient.Policy{
				MaxAttempts: 2, BaseDelay: time.Millisecond,
				Budget: 2 * time.Second, AttemptTimeout: time.Second,
				Clock: vc,
				// Per-run jitter source: the process-global jitter RNG
				// would otherwise carry state from run to run.
				JitterRand: resilient.NewLockedRand(seed),
			},
		}
		w, err := NewWorld(seed, sim.Spec{Domain: "uva", Options: opts, Hosts: sim.UniformSpecs(4, 4)})
		if err != nil {
			t.Fatalf("world: %v", err)
		}
		defer w.Close()
		site := w.Sites[0]
		w.Slow(site, 2*time.Millisecond, time.Millisecond)

		vc.StartTrace()
		vc.Run(func() {
			res := storm(w, site, sim.DriverConfig{
				Rate:       500,
				Requests:   50, // 100ms of arrivals
				Deadline:   200 * time.Millisecond,
				Priorities: []int{0, 0, 1},
			})
			if res.Offered == 0 {
				t.Error("storm offered nothing")
			}
			if resv, running := w.Quiesce(site, time.Second); resv+running != 0 {
				t.Errorf("leaked %d reservations + %d instances", resv, running)
			}
		})
		// Capture before Close: shutdown interleaves with the engine
		// nondeterministically and is not part of the proof.
		return vc.Trace()
	}

	start := time.Now()
	t1 := run()
	t2 := run()
	wall := time.Since(start)

	if len(t1) == 0 {
		t.Fatal("empty trace")
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d (seed %d)", len(t1), len(t2), seed)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at event %d (seed %d):\n  run1: %s\n  run2: %s",
				i, seed, t1[i], t2[i])
		}
	}
	if wall > 5*time.Second {
		t.Errorf("both storm replays took %v wall, want < 5s", wall)
	}
	t.Logf("trace: %d events, byte-identical across runs, %v wall (seed %d)", len(t1), wall, seed)
}

// TestStormFollowsWorldSeed: a storm's placement choices come from the
// world seed, so a seed sweep (TestWorldSweep) varies the placements as
// well as the faults. Every world here has the
// same core.Options.Seed and no faults; only the chaos seed differs.
func TestStormFollowsWorldSeed(t *testing.T) {
	run := func(seed int64) []string {
		vc := vclock.NewVirtual()
		w, err := NewWorld(seed, sim.Spec{Domain: "uva",
			Options: core.Options{Seed: 1, Metrics: telemetry.NewRegistry(), Clock: vc},
			Hosts:   sim.UniformSpecs(4, 4)})
		if err != nil {
			t.Fatalf("world: %v", err)
		}
		defer w.Close()
		site := w.Sites[0]
		w.Slow(site, 2*time.Millisecond, time.Millisecond)

		const requests = 40
		placed := make([]string, requests)
		vc.StartTrace()
		vc.Run(func() {
			res := storm(w, site, sim.DriverConfig{
				Rate:     500,
				Requests: requests,
				Observe: func(i int, out *scheduler.Outcome) {
					placed[i] = fmt.Sprint(out.Feedback.Resolved)
				},
			})
			if res.Succeeded != requests {
				t.Errorf("seed %d: %d of %d placed on a healthy site", seed, res.Succeeded, requests)
			}
		})
		return append(vc.Trace(), placed...)
	}

	if a, b := run(5), run(5); !slices.Equal(a, b) {
		t.Error("chaos seed 5 twice: traces differ")
	}
	if a, b := run(5), run(6); slices.Equal(a, b) {
		t.Error("chaos seeds 5 and 6: identical traces, so the world seed never reached a placement")
	}
}
