package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"legion/internal/classobj"
	"legion/internal/core"
	"legion/internal/resilient"
	"legion/internal/sim"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// vscaleFixture is E12's reduced row: the real pipeline on the
// discrete-event clock, 2ms±1ms of virtual link latency per method
// call, open-loop Poisson arrivals at 2000 requests per virtual second.
// The loop is open in virtual time only, so host time measures simulator
// speed, not offered load.
type vscaleFixture struct {
	cfg   config
	vc    *vclock.Virtual
	ms    *core.Metasystem
	fleet *sim.Fleet
	class *classobj.Class
}

func buildVscale(cfg config) (fixture, error) {
	f := newVscale(cfg)
	// Warm-up: a tenth of a campaign, on a seed no trial uses.
	if res, _ := f.campaign(cfg.vscalePlacements/10+1, cfg.seed-1); res.Failed+res.Shed > 0 {
		return nil, fmt.Errorf("vscale warm-up: %d failed, %d shed", res.Failed, res.Shed)
	}
	return f, nil
}

func newVscale(cfg config) *vscaleFixture {
	vc := vclock.NewVirtual()
	ms := core.New("scale", core.Options{
		Seed:    cfg.seed,
		Metrics: telemetry.NewRegistry(),
		Clock:   vc,
		// The retry policy of experiments.E12VirtualScale.
		Retry: resilient.Policy{
			MaxAttempts: 2, BaseDelay: 5 * time.Millisecond,
			Budget: 5 * time.Second, AttemptTimeout: 2 * time.Second,
			Clock: vc, JitterRand: resilient.NewLockedRand(cfg.seed),
		},
	})
	class := ms.DefineClass("Worker", nil)
	rng := rand.New(rand.NewSource(cfg.seed))
	fleet := sim.Build(ms, rng, sim.RandomSpecs(rng, cfg.bigHosts, "z1", "z2", "z3", "z4"))
	ms.Runtime().SetLatency(2*time.Millisecond, time.Millisecond)
	return &vscaleFixture{cfg: cfg, vc: vc, ms: ms, fleet: fleet, class: class}
}

// campaign drives one Fleet.Drive replay of n placements and returns
// its tally with what it cost the host.
func (f *vscaleFixture) campaign(n int, seed int64) (*sim.DriverResult, usage) {
	var res *sim.DriverResult
	u := measured(func() {
		f.vc.Run(func() {
			res = f.fleet.Drive(context.Background(), f.class, sim.DriverConfig{
				Clock:       f.vc,
				Rate:        2000,
				Requests:    n,
				Arrivals:    sim.Poisson,
				Seed:        seed,
				Deadline:    10 * time.Second,
				SnapshotTTL: 10 * time.Second,
			})
		})
	})
	return res, u
}

func (f *vscaleFixture) trial(i int) (trial, error) {
	res, u := f.campaign(f.cfg.vscalePlacements, f.cfg.seed+int64(i))
	us := func(q float64) float64 { return float64(res.Percentile(q)) / float64(time.Microsecond) }
	return trial{
		ops: int64(res.Succeeded), failed: int64(res.Failed + res.Shed), usage: u,
		p50: us(0.50), aux: us(0.99), samples: len(res.Latencies),
		note: fmt.Sprintf("shed=%d virtual_p999=%.0fus virtual_elapsed=%v goodput=%.0f/vs cache_hits=%d cache_misses=%d",
			res.Shed, us(0.999), res.Elapsed.Round(time.Millisecond), res.Goodput(), res.CacheHits, res.CacheMisses),
	}, nil
}

func (f *vscaleFixture) check() []string { return auditPlacement(f.ms, f.fleet, f.class) }

func (f *vscaleFixture) close() { _ = f.ms.Close() } // no listener was opened: Close cannot fail

// auditPlacement is the conservation check every placement workload
// ends with: the drain must leave no reservation and no instance, and
// the class's books must match the hosts' and vaults'.
func auditPlacement(ms *core.Metasystem, fleet *sim.Fleet, class *classobj.Class) []string {
	var msgs []string
	leaks := 0
	for _, h := range fleet.Hosts {
		leaks += h.ActiveReservations() + h.RunningCount()
	}
	if leaks != 0 {
		msgs = append(msgs, fmt.Sprintf("%d reservations or instances survive the drain", leaks))
	}
	if a := ms.AuditMigrations(class); !a.Clean() {
		msgs = append(msgs, "migration audit: "+a.String())
	}
	return msgs
}
