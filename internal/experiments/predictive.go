package experiments

import (
	"context"
	"fmt"
	"time"

	"legion/internal/classobj"
	"legion/internal/collection/daemon"
	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/nws"
	"legion/internal/rebalance"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// E15PredictiveRebalancing races the forecast-driven rebalancer against
// the reactive one on an identical virtual-time load timeline: a hot
// spot ramps up on a different host each phase, fast enough that by the
// time a host's load crosses the watermark its objects are already
// suffering. Both arms run the SAME machinery — a Collection daemon
// publishing $host_load_history, a Rebalancer, and the periodic
// forecast scan — and differ only in the predictor: the reactive arm
// forecasts with nws.LastValue (its "forecast" IS the current load, so
// it fires exactly when the watermark is crossed — threshold
// triggering), the predictive arm with nws.Trend (least-squares
// extrapolation, so a steadily heating host trips the scan while its
// load is still below the watermark).
//
// Reported per arm: migrations performed, migrations-too-late (the
// source's load had already crossed the watermark when the shed
// landed), and the mean load the objects experienced. The predictive
// arm must win on both quality metrics; the virtual clock makes every
// cell byte-identical across runs.
func E15PredictiveRebalancing(steps int) *Table {
	if steps < 8 {
		steps = 96
	}
	t := &Table{
		ID:    "E15",
		Title: "Predictive (NWS forecast) vs reactive rebalancing on one virtual-time timeline",
		Header: []string{"policy", "migrations", "too late", "early",
			"mean experienced load", "peak experienced load"},
	}
	const (
		nHosts    = 6
		nObjects  = 12
		watermark = 0.8
		tick      = time.Second
		rampSteps = 12 // hot host heats 0.1 -> 1.3 over this many ticks
		// The controller can only act every scanEvery load samples —
		// monitoring is cheap, migration sweeps are not. Lead time
		// therefore requires forecasting a full actuation period ahead,
		// which is exactly what the predictive arm's horizon buys.
		scanEvery = 3
	)
	ctx := context.Background()

	for _, arm := range []struct {
		name      string
		predictor nws.Predictor
	}{
		{"reactive (last-value)", nws.LastValue{}},
		{"predictive (trend)", nws.Trend{K: 4, Horizon: scanEvery}},
	} {
		vc := vclock.NewVirtual()
		reg := telemetry.NewRegistry()
		// 32-CPU hosts keep each running object's own load contribution
		// small (~0.03) so the advertised load the daemon publishes tracks
		// the external ramp rather than the shed feedback — the signal the
		// trend fit needs to be clean.
		ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 15, Metrics: reg, Clock: vc},
			Hosts: withMaxShared(sim.UniformSpecs(nHosts, 32), 64)}).MS
		class := ms.DefineClass("Worker", nil)

		// The driver itself stays an unmanaged goroutine (the vclock
		// contract: only it may call Advance); placement and the per-step
		// calls below are synchronous and never park on the clock.
		var instances []loid.LOID
		out, err := ms.PlaceApplication(ctx, scheduler.LoadAware{}, scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: nObjects}},
			Res:     shareSpec(),
		})
		if err != nil {
			t.Notes = append(t.Notes, "placement: "+err.Error())
			ms.Close()
			continue
		}
		for _, insts := range out.Instances {
			instances = append(instances, insts...)
		}

		d := ms.NewDaemon(daemon.Config{Interval: tick, HistoryLen: 8})
		pol := &rebalance.Predictive{
			Watermark:       watermark,
			MaxShedPerEvent: nObjects, // drain the hot host in one event
			Predictor:       arm.predictor,
		}
		rb := rebalance.New(ms, rebalance.Config{
			Classes:  []*classobj.Class{class},
			Cooldown: -1,
			Policy:   pol,
		})

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
		whereAll := func() map[loid.LOID]loid.LOID {
			m := make(map[loid.LOID]loid.LOID, len(instances))
			for _, inst := range instances {
				if hL, _, err := class.WhereIs(inst); err == nil {
					m[inst] = hL
				}
			}
			return m
		}

		var expSum, peak float64
		late, early := 0, 0
		if err := rb.Start(); err != nil {
			t.Notes = append(t.Notes, "rebalancer: "+err.Error())
			ms.Close()
			continue
		}
		rb.StartForecastScan(scanEvery*tick, pol)

		prev := whereAll()
		for s := 0; s < steps; s++ {
			// The rotating ramp: each phase a different host heats
			// linearly from 0.1 to 1.3, everyone else idles at 0.2.
			hot := (s / rampSteps) % nHosts
			frac := float64(s%rampSteps) / float64(rampSteps-1)
			for i, h := range hosts {
				l := 0.2
				if i == hot {
					l = 0.1 + 1.2*frac
				}
				h.SetExternalLoad(l)
			}
			ms.ReassessAll(ctx)
			// Advertised load (external + running objects) is what the
			// scan judges against the watermark; the late/early verdict
			// must use the same scale.
			loadOf := make(map[loid.LOID]float64, nHosts)
			for _, h := range hosts {
				loadOf[h.LOID()] = h.Load()
			}
			d.Sweep(ctx)
			// One virtual tick fires the forecast scan; Advance returns
			// only at full quiescence — the scan and every migration it
			// started have completed — so the step observes the
			// post-shed placement deterministically.
			vc.Advance(tick)

			cur := whereAll()
			for inst, h := range cur {
				if ph, ok := prev[inst]; ok && ph != h {
					if loadOf[ph] >= watermark {
						late++
					} else {
						early++
					}
				}
			}
			prev = cur

			e := experienced()
			expSum += e
			if e > peak {
				peak = e
			}
		}
		rb.Stop()

		t.AddRow(arm.name,
			reg.CounterValue("legion_rebalance_migrations_total", "result", "ok"),
			late, early,
			fmt.Sprintf("%.3f", expSum/float64(steps)),
			fmt.Sprintf("%.3f", peak))
		ms.Close()
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d hosts, %d objects; the hot host ramps 0.1->1.3 over %d virtual-second ticks, rotating each phase", nHosts, nObjects, rampSteps),
		fmt.Sprintf("load is sampled every tick but the rebalance scan only runs every %d ticks: detection lag is the reactive arm's handicap", scanEvery),
		"both arms run the identical scan machinery; only the predictor differs, so the delta is purely forecast quality",
		fmt.Sprintf("'too late' counts sheds landing after the source load had already crossed the %.1f watermark; 'early' before", watermark),
		"deterministic: virtual clock, fixed seed — cells are byte-identical across runs")
	return t
}

// E16ParamSpaceThroughput measures Table 2's justification for reusable
// reservations: a parameter-space study of many short tasks. The
// baseline drives every task through the full Wrapper/Enactor
// negotiation (generate schedule, make_reservations, enact) — one fresh
// reservation round per task, exactly what an application not using
// reusable tokens pays. The ParamSpace scheduler instead holds a small
// pool of reusable timesharing grants and redeems them per task,
// renegotiating only at the reuse cap. Both must complete every task
// (equal goodput); the reservation-RPC-per-task ratio is the win.
func E16ParamSpaceThroughput(tasks int) *Table {
	if tasks < 10 {
		tasks = 300
	}
	t := &Table{
		ID:    "E16",
		Title: "Parameter-space study: per-task negotiation vs reusable-reservation pool (Table 2)",
		Header: []string{"scheduler", "tasks", "started", "failed",
			"reservation RPCs", "RPCs/task", "wall ms", "tasks/s"},
	}
	ctx := context.Background()
	const nHosts, slots, reuseCap = 4, 4, 64

	var perTask, pooled float64

	// Arm 1: one Wrapper negotiation per task (fresh one-shot grant).
	{
		ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 16}, Hosts: sim.UniformSpecs(nHosts, 8)}).MS
		class := ms.DefineClass("Worker", nil)
		started, failed := 0, 0
		wall0 := time.Now()
		for i := 0; i < tasks; i++ {
			// One-shot timesharing: the grant dies with the task's
			// instance, exactly the fresh-reservation-per-task protocol
			// the reusable pool is supposed to beat.
			out, err := ms.PlaceApplication(ctx, scheduler.LoadAware{}, scheduler.Request{
				Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 1}},
				Res:     sched.ReservationSpec{Share: true, Reuse: false, Duration: time.Hour},
			})
			if err != nil {
				failed++
				continue
			}
			started++
			for _, insts := range out.Instances {
				for _, inst := range insts {
					_ = class.DestroyInstance(ctx, inst)
				}
			}
		}
		wall := time.Since(wall0)
		rpcs := ms.Enactor.TotalStats().ReservationsRequested +
			ms.Enactor.TotalStats().ReservationsCancelled
		perTask = float64(rpcs) / float64(tasks)
		t.AddRow("wrapper per task", tasks, started, failed, rpcs,
			fmt.Sprintf("%.2f", perTask),
			wall.Milliseconds(),
			fmt.Sprintf("%.0f", float64(started)/wall.Seconds()))
		ms.Close()
	}

	// Arm 2: the ParamSpace pool.
	{
		ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 16}, Hosts: sim.UniformSpecs(nHosts, 8)}).MS
		class := ms.DefineClass("Worker", nil)
		wall0 := time.Now()
		res, err := scheduler.ParamSpace{Slots: slots, ReuseCap: reuseCap}.
			Run(ctx, ms.Env(), class, tasks, nil)
		wall := time.Since(wall0)
		if err != nil {
			t.Notes = append(t.Notes, "paramspace: "+err.Error())
		}
		pooled = float64(res.ReservationRPCs) / float64(tasks)
		t.AddRow(fmt.Sprintf("paramspace pool (%d slots, cap %d)", slots, reuseCap),
			tasks, res.Started, res.Failed, res.ReservationRPCs,
			fmt.Sprintf("%.2f", pooled),
			wall.Milliseconds(),
			fmt.Sprintf("%.0f", float64(res.Started)/wall.Seconds()))
		ms.Close()
	}

	if perTask > 0 && pooled > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("reservation-RPC reduction: %.1fx fewer per task", perTask/pooled))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d hosts; short tasks: create one instance on the reserved placement, then destroy it", nHosts),
		"baseline counts Enactor make_reservation + cancel_reservation traffic; pool counts its own direct host RPCs",
		"the pool redeems each reusable timesharing token for up to the cap before renegotiating (Table 2's parameter-space case)")
	return t
}
