package experiments

import (
	"context"
	"fmt"
	"time"

	"legion/internal/chaos"
	"legion/internal/core"
	"legion/internal/resilient"
	"legion/internal/sim"
	"legion/internal/telemetry"
)

// E11OverloadAdmission measures overload robustness: an open-loop storm
// fires placements at a 4-host site at several multiples of a base rate,
// once with the admission layer off (the uncontrolled baseline) and once
// with it on (bounded in-flight placements, a priority wait queue,
// deadline-aware shedding, and a host-side occupancy watermark).
//
// The claim under test is the metastability argument: an uncontrolled
// service accepts every request and serves all of them badly — queues
// grow without bound, latency blows past every client's patience, and
// goodput collapses even though the service is doing maximal work. The
// admission layer refuses what it cannot serve in time (cheaply, with a
// typed refusal that trips no circuit breaker) so the work it does accept
// still completes within its deadline.
//
// Each row also carries the conservation checks: after the storm drains,
// sheds must have left zero active reservations and zero running
// instances behind, and the breaker pool must have recorded zero trips —
// shedding is a refusal, not a failure.
func E11OverloadAdmission(multipliers []float64, stormDur time.Duration) *Table {
	if len(multipliers) == 0 {
		multipliers = []float64{2, 5, 10}
	}
	if stormDur <= 0 {
		stormDur = 600 * time.Millisecond
	}
	t := &Table{
		ID:    "E11",
		Title: "Overload storms: admission control vs uncontrolled (goodput, p99, conservation)",
		Header: []string{"load", "admission", "offered", "ok", "shed", "failed",
			"goodput/s", "p99", "leaks", "breakers opened"},
	}
	const baseRate = 50.0 // requests/second at 1× load
	addRow := func(load string, admission, slow bool) overloadRow {
		var m float64
		fmt.Sscanf(load, "%fx", &m)
		row := overloadStormRun(m*baseRate, stormDur, admission, slow)
		mode := "off"
		if admission {
			mode = "on"
		}
		t.AddRow(load, mode, row.Offered, row.Succeeded,
			row.Shed, row.Failed, fmt.Sprintf("%.1f", row.Goodput()), row.Percentile(0.99),
			row.leaks, row.breakersOpened)
		return row
	}
	for _, m := range multipliers {
		load := fmt.Sprintf("%.0fx", m)
		addRow(load, false, false)
		addRow(load, true, false)
	}
	// The in-process fast path never saturates — placements are
	// sub-millisecond, so the plain rows show admission as a pass-through
	// when the site keeps up. The slow pair injects per-call service time
	// so the gate genuinely binds and the artifact shows sheds in action.
	addRow("5x-slow", false, true)
	slowOn := addRow("5x-slow", true, true)
	t.Notes = append(t.Notes,
		fmt.Sprintf("open-loop arrivals, %.0f req/s at 1x, %v per storm, 300ms client deadline", baseRate, stormDur),
		"admission on = -max-inflight 8 -admission-queue 16 -shed-watermark 0.8; priorities cycle 0,0,0,1",
		"5x-slow rows inject 10ms±2ms per-call service time so the gate binds: admission sheds instead of queueing past the deadline",
		fmt.Sprintf("5x-slow admission-on shed by priority: %v (priority 1 is preferred under fair-share)", slowOn.ShedByPriority),
		"leaks = active reservations + running instances left after the storm drains (must be 0)",
		"breakers opened counts legion_breaker_transitions_total{to=open} (sheds must not trip breakers)")
	return t
}

// overloadRow is one storm's result plus its conservation counters.
type overloadRow struct {
	*sim.DriverResult
	leaks          int
	breakersOpened int64
}

// overloadStormRun builds a fresh single-site world, fires one storm at
// the given rate, and reads back the conservation state. slow injects
// 10ms±2ms of per-call service time so the admission gate saturates.
func overloadStormRun(rate float64, dur time.Duration, admission, slow bool) overloadRow {
	reg := telemetry.NewRegistry()
	opts := core.Options{
		Seed:    1,
		Metrics: reg,
		Retry: resilient.Policy{
			MaxAttempts: 2, BaseDelay: time.Millisecond,
			Budget: 2 * time.Second, AttemptTimeout: time.Second,
		},
	}
	if admission {
		opts.MaxInFlight = 8
		opts.AdmissionQueue = 16
		opts.ShedWatermark = 0.8
	}
	w, err := chaos.NewWorld(11, sim.Spec{Domain: "uva", Options: opts, Hosts: sim.UniformSpecs(4, 4)})
	if err != nil {
		return overloadRow{DriverResult: &sim.DriverResult{}}
	}
	defer w.Close()
	site := w.Sites[0]
	if slow {
		w.Slow(site, 10*time.Millisecond, 2*time.Millisecond)
	}

	class, _ := site.MS.Class("Worker")
	res := sim.Drive(context.Background(), site.MS, class, sim.DriverConfig{
		Arrivals:    sim.Uniform,
		Rate:        rate,
		Requests:    int(rate * dur.Seconds()),
		SnapshotTTL: -1,
		Seed:        w.Seed(),
		Deadline:    300 * time.Millisecond,
		Priorities:  []int{0, 0, 0, 1},
	})

	// Quiesce, then check conservation: a shed must be a pure refusal.
	// The wait matters — server-side rollbacks may still be in flight
	// when the last client-side request returns.
	resv, running := w.Quiesce(site, 2*time.Second)
	leaks := resv + running
	opened := reg.CounterValue("legion_breaker_transitions_total", "to", "open")
	return overloadRow{DriverResult: res, leaks: leaks, breakersOpened: opened}
}
