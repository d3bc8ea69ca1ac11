package experiments

import (
	"context"
	"fmt"
	"time"

	"legion/internal/core"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/scheduler"
	"legion/internal/sim"
	"legion/internal/vclock"
)

// Fig7RandomScheduler characterizes the Figure 7 random placement
// policy: placement success rate and quality (makespan, imbalance) on a
// heterogeneous fleet, as a function of how many objects are requested.
func Fig7RandomScheduler(counts []int) *Table {
	if len(counts) == 0 {
		counts = []int{4, 16, 48}
	}
	t := &Table{
		ID:     "F7",
		Title:  "Random scheduler (Figure 7) on a 12-host heterogeneous fleet",
		Header: []string{"objects", "placed", "sched attempts", "makespan", "imbalance"},
	}
	ctx := context.Background()
	for _, n := range counts {
		fleet := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 7},
			Hosts: withMaxShared(sim.RandomSpecs(newRand(7), 12), 256)})
		ms := fleet.MS
		class := ms.DefineClass("Worker", nil)
		out, err := ms.PlaceApplication(ctx, scheduler.Random{}, scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: n}},
			Res:     shareSpec(),
		})
		if err != nil {
			t.AddRow(n, "failed", out.SchedAttempts, "-", "-")
		} else {
			t.AddRow(n, "ok", out.SchedAttempts,
				fleet.Makespan(out.Feedback.Resolved, 30*time.Second),
				fmt.Sprintf("%.2f", fleet.Imbalance(out.Feedback.Resolved)))
		}
		ms.Close()
	}
	t.Notes = append(t.Notes,
		`"no consideration of load, speed, memory contention ... the goal here is simplicity, not performance"`)
	return t
}

// Fig8IRS compares IRS (Figures 8-9) against repeated Random under
// resource contention: tight per-host admission bounds make individual
// reservations fail, which IRS absorbs with variant schedules while
// Random must regenerate from scratch.
func Fig8IRS(rounds int) *Table {
	if rounds < 1 {
		rounds = 30
	}
	t := &Table{
		ID:    "F8",
		Title: "IRS vs Random (Figures 8-9) under contention (tight admission bounds)",
		Header: []string{"scheduler", "success", "collection lookups/placement",
			"sched attempts", "reservations cancelled", "variants tried"},
	}
	ctx := context.Background()
	for _, genName := range []string{"random", "irs"} {
		// 8 hosts, each admitting exactly one concurrent reservation;
		// each round places 6 objects. Random choices collide within a
		// placement (birthday effect) and force whole-schedule
		// regeneration; IRS absorbs collisions with variants.
		ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 8},
			Hosts: withMaxShared(sim.UniformSpecs(8, 8), 1)}).MS
		class := ms.DefineClass("Worker", nil)
		env := ms.Env()

		var gen scheduler.Generator
		if genName == "irs" {
			gen = scheduler.IRS{NSched: 4}
		} else {
			gen = scheduler.Random{}
		}

		succ := 0
		schedAttempts, cancelled, variants := 0, 0, 0
		q0, _ := ms.Collection.Stats()
		for r := 0; r < rounds; r++ {
			out, err := (scheduler.Wrapper{SchedTryLimit: 3, EnactTryLimit: 1}).Run(
				ctx, env, ms.Enactor.LOID(), gen, scheduler.Request{
					Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 6}},
					Res:     shareSpec(),
				})
			schedAttempts += out.SchedAttempts
			cancelled += out.Feedback.Stats.ReservationsCancelled
			variants += out.Feedback.Stats.VariantsTried
			if err == nil {
				succ++
				// Release everything for the next round.
				for i, insts := range out.Instances {
					for _, inst := range insts {
						_, _ = orb.Invoke[proto.Ack](ctx, ms.Runtime(), out.Feedback.Resolved[i].Class,
							proto.MethodDestroyInstance, proto.ObjectArgs{Object: inst})
					}
				}
				_ = ms.Enactor.CancelReservations(ctx, out.RequestID)
			}
		}
		q1, _ := ms.Collection.Stats()
		t.AddRow(genName, pct(succ, rounds),
			fmt.Sprintf("%.1f", float64(q1-q0)/float64(rounds)),
			fmt.Sprintf("%.2f", float64(schedAttempts)/float64(rounds)),
			cancelled, variants)
		ms.Close()
	}
	t.Notes = append(t.Notes,
		`"IRS does fewer lookups in the Collection" — one per class vs one per generated schedule`,
		"variant schedules let IRS survive individual reservation failures without regenerating")
	return t
}

// E1SchedulerLadder is the benchmark the paper promised (§6): "measure
// the improvement in performance as we develop more intelligent
// Schedulers." Four policies place three workload families on the same
// heterogeneous fleet; quality is modelled makespan / imbalance / edge
// cut.
func E1SchedulerLadder() *Table {
	t := &Table{
		ID:    "E1",
		Title: "Scheduler intelligence ladder (§6's promised benchmark)",
		Header: []string{"workload", "scheduler", "placed", "makespan",
			"imbalance", "edge cut"},
	}
	ctx := context.Background()
	const gridR, gridC = 8, 8

	type work struct {
		name  string
		count int
		grid  bool
	}
	workloads := []work{
		{"bag-of-tasks (32)", 32, false},
		{"2-D stencil 8x8", gridR * gridC, true},
	}
	for _, w := range workloads {
		gens := []scheduler.Generator{
			scheduler.Random{},
			scheduler.IRS{NSched: 4},
			scheduler.LoadAware{},
			scheduler.DeadlineBudget{Estimate: 30 * time.Second},
		}
		if w.grid {
			gens = append(gens, scheduler.Stencil{Rows: gridR, Cols: gridC})
		}
		for _, gen := range gens {
			fleet := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 11, Clock: vclock.NewVirtual()},
				Hosts: withMaxShared(sim.RandomSpecs(newRand(11), 10), 256)})
			ms := fleet.MS
			class := ms.DefineClass("Worker", nil)
			res := shareSpec()
			if _, isEco := gen.(scheduler.DeadlineBudget); isEco {
				// The economy rung needs a deadline to optimize against;
				// everything else about the request is identical.
				res.Deadline = 10 * time.Minute
			}
			out, err := ms.PlaceApplication(ctx, gen, scheduler.Request{
				Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: w.count}},
				Res:     res,
			})
			if err != nil {
				t.AddRow(w.name, gen.Name(), "failed", "-", "-", "-")
				ms.Close()
				continue
			}
			cut := "-"
			if w.grid {
				cut = fmt.Sprintf("%d", scheduler.EdgeCut(
					scheduler.AssignmentOf(out.Feedback.Resolved), gridR, gridC))
			}
			t.AddRow(w.name, gen.Name(), "ok",
				fleet.Makespan(out.Feedback.Resolved, 30*time.Second),
				fmt.Sprintf("%.2f", fleet.Imbalance(out.Feedback.Resolved)), cut)
			ms.Close()
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: load-aware beats random on makespan; stencil minimizes edge cut on grids",
		`"simple, generic default Schedulers ... can easily be outperformed by Schedulers with`+
			` specialized algorithms or knowledge of the application"`)
	return t
}
