package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"legion/internal/core"
	"legion/internal/resilient"
	"legion/internal/sim"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// E12VirtualScale drives a large synthetic metasystem through the real
// placement pipeline under the deterministic discrete-event clock: every
// timer, deadline, backoff, and injected link delay runs in virtual
// time, so a 100k-host, 1M-placement campaign that would occupy a
// wide-area testbed for hours executes in one process in minutes of
// wall-clock — with latency percentiles measured on the virtual clock,
// where they are exact properties of the model rather than artifacts of
// the harness machine.
//
// The paper's own evaluation stopped at a multi-site testbed of tens of
// machines; its design sections argue the architecture scales far
// beyond that ("scheduling in metasystems is a hard problem ... millions
// of hosts", §1). This experiment is the closest executable form of that
// claim: the production Scheduler/Enactor/Host negotiation, a 2ms±1ms
// synthetic wide-area link on every method call, an open-loop Poisson
// arrival process, and a post-run conservation audit (no reservation or
// instance may survive the drain).
//
// hosts/requests <= 0 default to 100,000 hosts and 1,000,000 placements
// (the committed EXPERIMENTS.md row); CI runs a reduced 10k/50k row.
func E12VirtualScale(hosts, requests int) *Table {
	if hosts <= 0 {
		hosts = 100_000
	}
	if requests <= 0 {
		requests = 1_000_000
	}
	t := &Table{
		ID:    "E12",
		Title: "Virtual-time scale: open-loop placements through the real pipeline",
		Header: []string{"hosts", "requests", "ok", "shed", "failed",
			"p50", "p99", "p999", "goodput/vs", "vtime", "wall", "leaks", "MB", "B/host"},
	}

	// Bytes per host: heap growth across the fleet build, which covers
	// the Host object, its attribute database, its reservation table,
	// and its Collection record.
	var heapMB, perHost float64
	run := virtualCampaign{
		domain: "scale", seed: 12,
		specs: sim.RandomSpecs, zones: []string{"z1", "z2", "z3", "z4"},
		hosts: hosts, requests: requests,
		built: func(*sim.Fleet) {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			heapMB = float64(m.HeapAlloc) / (1 << 20)
			perHost = float64(m.HeapAlloc) / float64(hosts)
		},
	}.run()
	res := run.res

	t.AddRow(hosts, requests, res.Succeeded, res.Shed, res.Failed,
		res.Percentile(0.50), res.Percentile(0.99), res.Percentile(0.999),
		fmt.Sprintf("%.0f", res.Goodput()),
		res.Elapsed.Round(time.Millisecond), run.wall.Round(time.Millisecond),
		run.leaks, fmt.Sprintf("%.0f", heapMB), fmt.Sprintf("%.0f", perHost))
	t.Notes = append(t.Notes,
		"single process, deterministic discrete-event clock (internal/vclock); latencies are virtual time",
		"2ms±1ms synthetic link latency per method call; Poisson arrivals at 2000 req/virtual-second",
		fmt.Sprintf("host snapshots cached 10 virtual seconds: %d hits / %d misses", res.CacheHits, res.CacheMisses),
		"leaks = active reservations + running instances after the drain (must be 0)",
		"MB = heap after fleet build; B/host = heap bytes per built host")
	return t
}

// virtualCampaign is one open-loop run of the real placement pipeline on
// a virtual clock: E12's configuration, parameterised by what E12, E13
// and E14 vary.
type virtualCampaign struct {
	domain string
	// seed drives the metasystem, the retry jitter, the fleet build and
	// the arrival process.
	seed            int64
	economy         bool
	specs           func(rng *rand.Rand, n int, zones ...string) []sim.HostSpec
	zones           []string
	hosts, requests int
	// built, when non-nil, runs once the fleet exists, before the drive.
	built func(*sim.Fleet)
	// drive carries the DriverConfig fields beyond the shared ones.
	drive     sim.DriverConfig
	keepTrace bool
}

// campaignRun is a virtualCampaign's outcome.
type campaignRun struct {
	res  *sim.DriverResult
	wall time.Duration
	// leaks is the conservation audit: active reservations plus running
	// instances after the drain, which must be zero.
	leaks int
	trace []string
}

func (c virtualCampaign) run() campaignRun {
	vc := vclock.NewVirtual()
	ms := core.New(c.domain, core.Options{
		Seed:    c.seed,
		Metrics: telemetry.NewRegistry(),
		Clock:   vc,
		Economy: c.economy,
		Retry: resilient.Policy{
			MaxAttempts: 2, BaseDelay: 5 * time.Millisecond,
			Budget: 5 * time.Second, AttemptTimeout: 2 * time.Second,
			Clock: vc, JitterRand: resilient.NewLockedRand(c.seed),
		},
	})
	defer ms.Close()
	class := ms.DefineClass("Worker", nil)

	rng := rand.New(rand.NewSource(c.seed))
	fleet := sim.Build(ms, rng, c.specs(rng, c.hosts, c.zones...))
	// 2ms±1ms virtual link latency on every method call: placement
	// latency becomes a count of negotiation round-trips, measured
	// exactly in virtual time.
	ms.Runtime().SetLatency(2*time.Millisecond, time.Millisecond)
	if c.built != nil {
		c.built(fleet)
	}

	cfg := c.drive
	cfg.Clock = vc
	cfg.Rate = 2000
	cfg.Requests = c.requests
	cfg.Arrivals = sim.Poisson
	cfg.Seed = c.seed
	cfg.Deadline = 10 * time.Second
	cfg.SnapshotTTL = 10 * time.Second

	if c.keepTrace {
		vc.StartTrace()
	}
	var run campaignRun
	wall0 := time.Now()
	vc.Run(func() {
		run.res = fleet.Drive(context.Background(), class, cfg)
	})
	run.wall = time.Since(wall0)
	for _, h := range fleet.Hosts {
		run.leaks += h.ActiveReservations() + h.RunningCount()
	}
	if c.keepTrace {
		run.trace = vc.Trace()
	}
	return run
}
