package experiments

import (
	"context"
	"testing"
	"time"

	"legion/internal/chaos"
	"legion/internal/core"
	"legion/internal/resilient"
	"legion/internal/sim"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// TestE11DifferentialVirtualClock runs E11's admission-storm scenario at
// small scale twice — once on the wall clock (TCP-served world, exactly
// as E11 ships it) and once on the virtual clock (in-process world) —
// and asserts the same invariants hold. The virtual clock is only
// trustworthy as a scale harness if it reproduces wall-clock behaviour:
// same offered count (the open-loop schedule is a property of rate and
// duration, not of the clock driving it), full accounting (every
// offered request resolves to exactly one of ok/shed/failed), sheds
// under genuine overload, goodput above zero, and conservation (no
// reservation or instance survives the drain).
func TestE11DifferentialVirtualClock(t *testing.T) {
	type outcome struct {
		offered, ok, shed, failed, leaks int
	}

	// Capacity math: ~5ms per method call and ~7 calls per placement
	// puts service time near 35ms; 2 slots ≈ 57 placements/s against
	// 200 offered/s, so the 4-deep queue fills at once and the gate
	// must genuinely bind — and shed — in both runs, while a 250ms
	// client deadline leaves admitted requests room to finish.
	run := func(vc *vclock.Virtual) outcome {
		opts := core.Options{
			Seed:           1,
			Metrics:        telemetry.NewRegistry(),
			MaxInFlight:    2,
			AdmissionQueue: 4,
			ShedWatermark:  0.8,
			Retry: resilient.Policy{
				MaxAttempts: 2, BaseDelay: time.Millisecond,
				Budget: 2 * time.Second, AttemptTimeout: time.Second,
			},
		}
		if vc != nil {
			opts.Clock = vc
			opts.Retry.Clock = vc
			opts.Retry.JitterRand = resilient.NewLockedRand(7)
		}
		w, err := chaos.NewWorld(11, sim.Spec{Domain: "uva", Options: opts, Hosts: sim.UniformSpecs(2, 4)})
		if err != nil {
			t.Fatalf("world: %v", err)
		}
		defer w.Close()
		site := w.Sites[0]
		w.Slow(site, 5*time.Millisecond, time.Millisecond)

		class, _ := site.MS.Class("Worker")
		var res *sim.DriverResult
		var resv, running int
		body := func() {
			res = sim.Drive(context.Background(), site.MS, class, sim.DriverConfig{
				Arrivals:    sim.Uniform,
				Rate:        200,
				Requests:    50, // 250ms of arrivals
				SnapshotTTL: -1,
				Seed:        w.Seed(),
				Deadline:    250 * time.Millisecond,
				Priorities:  []int{0, 0, 0, 1},
			})
			resv, running = w.Quiesce(site, 2*time.Second)
		}
		if vc != nil {
			vc.Run(body)
		} else {
			body()
		}
		return outcome{res.Offered, res.Succeeded, res.Shed, res.Failed, resv + running}
	}

	wall := run(nil)
	virt := run(vclock.NewVirtual())
	t.Logf("wall clock:    %+v", wall)
	t.Logf("virtual clock: %+v", virt)

	for name, o := range map[string]outcome{"wall": wall, "virtual": virt} {
		if o.offered != 50 {
			t.Errorf("%s: offered = %d, want 50 (open-loop schedule is clock-independent)", name, o.offered)
		}
		if o.ok+o.shed+o.failed != o.offered {
			t.Errorf("%s: accounting hole: ok %d + shed %d + failed %d != offered %d",
				name, o.ok, o.shed, o.failed, o.offered)
		}
		if o.ok == 0 {
			t.Errorf("%s: zero goodput under a 2x overload — the gate should admit ~half", name)
		}
		if o.shed == 0 {
			t.Errorf("%s: zero sheds at 2x the site's service capacity", name)
		}
		if o.leaks != 0 {
			t.Errorf("%s: %d leaked reservations/instances after drain", name, o.leaks)
		}
	}
}
