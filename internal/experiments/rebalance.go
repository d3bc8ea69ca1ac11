package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"legion/internal/classobj"
	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/proto"
	"legion/internal/rebalance"
	"legion/internal/scheduler"
	"legion/internal/sim"
	"legion/internal/telemetry"
)

// E6MonitoredRebalancing runs the full §3.5 closed loop over a timeline:
// objects are placed once, background load then drifts unevenly, and the
// rebalance subsystem — subscribed to the Monitor through its bounded
// async queue — migrates objects off overloaded hosts. The same timeline
// runs once with the Rebalancer stopped (static placement) as the
// baseline. Reported: mean/peak effective host load over the run and
// migrations performed — the "recomputation of the schedule ... based on
// the load on the hosts" the paper describes.
func E6MonitoredRebalancing(steps int) *Table {
	if steps < 4 {
		steps = 40
	}
	t := &Table{
		ID:     "E6",
		Title:  "Monitored rebalancing (internal/rebalance) vs static placement under drifting load",
		Header: []string{"policy", "migrations", "mean experienced load", "final experienced load"},
	}
	ctx := context.Background()
	const nHosts, nObjects = 4, 8

	for _, monitored := range []bool{false, true} {
		reg := telemetry.NewRegistry()
		// 8-CPU hosts: an object adds little load itself, so the drifting
		// background load dominates the experienced-load objective.
		fleet := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 66, Metrics: reg},
			Hosts: withMaxShared(sim.UniformSpecs(nHosts, 8), 64)})
		ms := fleet.MS
		class := ms.DefineClass("Worker", nil)

		out, err := ms.PlaceApplication(ctx, scheduler.LoadAware{}, scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: nObjects}},
			Res:     shareSpec(),
		})
		if err != nil {
			t.Notes = append(t.Notes, "placement: "+err.Error())
			ms.Close()
			continue
		}
		var instances []loid.LOID
		for _, insts := range out.Instances {
			instances = append(instances, insts...)
		}

		// Drifting load: host 0 ramps toward saturation, the rest stay
		// quiet — a deterministic drift so both runs see the same world.
		drift := func(step int) {
			for i, h := range fleet.Hosts {
				if i == 0 {
					h.SetExternalLoad(math.Min(1.5, 0.05*float64(step)))
				} else {
					h.SetExternalLoad(0.1)
				}
			}
		}

		var rb *rebalance.Rebalancer
		if monitored {
			rb = rebalance.New(ms, rebalance.Config{
				Classes:  []*classobj.Class{class},
				Cooldown: -1,
				Policy:   &rebalance.LeastLoaded{MaxShedPerEvent: nObjects / nHosts},
			})
			if err := rb.Start(); err != nil {
				t.Notes = append(t.Notes, "rebalancer: "+err.Error())
			}
			if err := ms.WatchLoad(ctx, 1.0); err != nil {
				t.Notes = append(t.Notes, "watch: "+err.Error())
			}
		}

		// The objective an application cares about: the load its objects
		// actually experience (their host's load), averaged per step —
		// migration can move objects away from hot machines even though
		// it cannot cool the machines themselves.
		experienced := func() float64 {
			loadOf := map[loid.LOID]float64{}
			for _, h := range fleet.Hosts {
				loadOf[h.LOID()] = h.Load()
			}
			sum, n := 0.0, 0
			for _, inst := range instances {
				if hL, _, err := class.WhereIs(inst); err == nil {
					sum += loadOf[hL]
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		}

		expSum, final := 0.0, 0.0
		for s := 0; s < steps; s++ {
			drift(s)
			ms.ReassessAll(ctx) // triggers fire here when monitored
			if monitored {
				drainRebalancer(ms, 250*time.Millisecond)
			}
			final = experienced()
			expSum += final
		}

		name := "static placement"
		if monitored {
			name = "monitored rebalancing"
			rb.Stop()
		}
		m := reg.CounterValue("legion_rebalance_migrations_total", "result", "ok")
		t.AddRow(name, m, fmt.Sprintf("%.2f", expSum/float64(steps)), fmt.Sprintf("%.2f", final))
		ms.Close()
	}
	t.Notes = append(t.Notes,
		"host 0's background load ramps to 1.5 over the run; overload trigger fires at load > 1.0",
		"each trigger firing sheds the overloaded host's objects to the least-loaded hosts (same LOIDs, state intact)",
		"migrations run through internal/rebalance: async Monitor queue, per-instance locks, cooldown disabled")
	return t
}

// drainRebalancer waits (bounded) for the Monitor's async queues to
// empty so a benchmark step observes the post-migration placement.
func drainRebalancer(ms *core.Metasystem, budget time.Duration) {
	deadline := time.Now().Add(budget)
	for ms.Monitor.QueueDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Queue empty means dequeued, not finished: give the in-flight
	// handler a moment to complete its Migrate calls.
	time.Sleep(5 * time.Millisecond)
}

// E10RebalanceChaosScale is the PR 5 acceptance experiment: a larger
// fleet under drifting load AND a >= 20% injected fault rate on the
// migration protocol's own steps (StartObject, StoreOPR). The rebalance
// subsystem keeps shedding overloaded hosts while destinations fail
// mid-migration; at the end the token/OPR conservation audit must come
// back clean and every object must be running exactly once.
func E10RebalanceChaosScale(nHosts, nObjects, steps int, faultRate float64) *Table {
	if nHosts < 2 {
		nHosts = 12
	}
	if nObjects < 1 {
		nObjects = 36
	}
	if steps < 4 {
		steps = 60
	}
	if faultRate < 0 {
		faultRate = 0.25
	}
	t := &Table{
		ID:    "E10",
		Title: "Rebalancing at scale under migration-path faults (conservation audit)",
		Header: []string{"fault rate", "migrations ok", "migrations failed", "recoveries",
			"mean experienced load", "running exactly once", "leaked tokens", "orphan OPRs"},
	}
	ctx := context.Background()

	for _, rate := range []float64{0, faultRate} {
		reg := telemetry.NewRegistry()
		ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 1999, Metrics: reg},
			Hosts: withMaxShared(sim.UniformSpecs(nHosts, 8), 64), Vaults: 2}).MS
		class := ms.DefineClass("Worker", nil)
		out, err := ms.PlaceApplication(ctx, scheduler.LoadAware{}, scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: nObjects}},
			Res:     shareSpec(),
		})
		if err != nil {
			t.Notes = append(t.Notes, "placement: "+err.Error())
			ms.Close()
			continue
		}
		var instances []loid.LOID
		for _, insts := range out.Instances {
			instances = append(instances, insts...)
		}

		// Seeded migration-path faults: the destination host "dies" at
		// StartObject, the destination vault at StoreOPR.
		if rate > 0 {
			rng := newRand(7)
			ms.Runtime().SetFaultInjector(func(target loid.LOID, method string) error {
				if method == proto.MethodStartObject || method == proto.MethodStoreOPR {
					if rng.Float64() < rate {
						return fmt.Errorf("injected: %s dies mid-migration", method)
					}
				}
				return nil
			})
		}

		rb := rebalance.New(ms, rebalance.Config{
			Classes:  []*classobj.Class{class},
			Cooldown: -1,
			Policy:   &rebalance.LeastLoaded{MaxShedPerEvent: nObjects / nHosts},
		})
		if err := rb.Start(); err != nil {
			t.Notes = append(t.Notes, "rebalancer: "+err.Error())
		}
		if err := ms.WatchLoad(ctx, 0.8); err != nil {
			t.Notes = append(t.Notes, "watch: "+err.Error())
		}

		hosts := ms.Hosts()
		experienced := func() float64 {
			loadOf := map[loid.LOID]float64{}
			for _, h := range hosts {
				loadOf[h.LOID()] = h.Load()
			}
			sum, n := 0.0, 0
			for _, inst := range instances {
				if hL, _, err := class.WhereIs(inst); err == nil {
					sum += loadOf[hL]
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		}

		// A rotating hot-spot: each phase saturates a different host.
		loadRNG := newRand(31)
		expSum := 0.0
		for s := 0; s < steps; s++ {
			hot := (s / 5) % nHosts
			for i, h := range hosts {
				if i == hot {
					h.SetExternalLoad(1.2)
				} else {
					h.SetExternalLoad(0.1 + 0.2*loadRNG.Float64())
				}
			}
			ms.ReassessAll(ctx)
			drainRebalancer(ms, 250*time.Millisecond)
			expSum += experienced()
		}
		rb.Stop()
		ms.Runtime().SetFaultInjector(nil)

		// Converge and audit: the invariant the whole PR exists for.
		_ = rb.Reconcile(ctx)
		audit := ms.AuditMigrations(class)
		exactlyOnce := len(audit.Missing) == 0 && len(audit.Duplicated) == 0

		t.AddRow(
			fmt.Sprintf("%.0f%%", rate*100),
			reg.CounterValue("legion_rebalance_migrations_total", "result", "ok"),
			reg.CounterValue("legion_rebalance_migrations_total", "result", "failed"),
			reg.CounterValue("legion_rebalance_recoveries_total"),
			fmt.Sprintf("%.2f", expSum/float64(steps)),
			exactlyOnce,
			audit.LeakedTokens,
			len(audit.OrphanOPRs),
		)
		ms.Close()
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d hosts x 2 vaults, %d objects; a rotating hot-spot saturates a different host every 5 steps", nHosts, nObjects),
		"faults hit the migration protocol itself: destination StartObject and vault StoreOPR fail at the given rate",
		"after the storm one Reconcile pass runs; the audit then checks exactly-once + zero leaked tokens + zero orphan OPRs")
	return t
}
