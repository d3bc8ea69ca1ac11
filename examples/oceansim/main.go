// Oceansim: the paper's §4.3 motivating scenario — "an MPI-based ocean
// simulation which uses nearest-neighbor communication within a 2-D
// grid" (the DoD MSRC collaboration).
//
// A 12x12 grid of simulation subdomain objects is placed on a
// heterogeneous fleet twice: once with the generic Random scheduler
// (Fig 7) and once with the specialized Stencil scheduler. The
// communication cost (grid edges crossing host boundaries) and the
// modelled makespan show why "Schedulers with specialized algorithms or
// knowledge of the application" easily beat the generic 90% solution.
//
// Run with: go run ./examples/oceansim
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"legion/internal/core"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
)

const rows, cols = 12, 12

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1999))

	// A heterogeneous fleet: IRIX workstations, Solaris servers, Linux
	// PCs — the kind of campus metasystem Legion federated.
	specs := sim.RandomSpecs(rng, 8, "stennis")
	for i := range specs {
		// A long-running MPI job timeshares freely on these machines:
		// lift the per-host reservation multiplex bound so capacity, not
		// admission, differentiates the schedulers.
		specs[i].MaxShared = rows * cols
	}
	fleet := sim.New(sim.Spec{Domain: "msrc", Options: core.Options{Seed: 1999}, Hosts: specs})
	ms := fleet.MS
	defer ms.Close()

	oceanClass := ms.DefineClass("OceanSubdomain", nil)
	req := scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: oceanClass.LOID(), Count: rows * cols}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: 8 * time.Hour},
	}

	fmt.Printf("placing a %dx%d ocean-model grid on %d hosts\n\n", rows, cols, len(fleet.Hosts))
	fmt.Printf("%-12s %10s %12s %12s\n", "scheduler", "edge cut", "makespan", "imbalance")

	type result struct {
		name string
		cut  int
	}
	var results []result
	for _, gen := range []scheduler.Generator{
		scheduler.Random{},
		scheduler.Stencil{Rows: rows, Cols: cols},
	} {
		// Fresh environment per policy so both see identical system state.
		out, err := ms.PlaceApplication(ctx, gen, req)
		if err != nil {
			log.Fatalf("%s placement: %v", gen.Name(), err)
		}
		mappings := out.Feedback.Resolved
		cut := scheduler.EdgeCut(scheduler.AssignmentOf(mappings), rows, cols)
		mksp := fleet.Makespan(mappings, 30*time.Second)
		imb := fleet.Imbalance(mappings)
		fmt.Printf("%-12s %10d %12v %12.2f\n", gen.Name(), cut, mksp.Round(time.Millisecond), imb)
		results = append(results, result{gen.Name(), cut})

		// Tear the placement down before the next policy runs.
		for _, insts := range out.Instances {
			for _, inst := range insts {
				if _, err := ms.Runtime().Call(ctx, oceanClass.LOID(),
					proto.MethodDestroyInstance, proto.ObjectArgs{Object: inst}); err != nil {
					log.Fatalf("teardown: %v", err)
				}
			}
		}
		if err := ms.Enactor.CancelReservations(ctx, out.RequestID); err != nil {
			log.Fatalf("cancel: %v", err)
		}
	}

	fmt.Printf("\nthe stencil policy keeps %.0f%% of the nearest-neighbour edges on-host vs random\n",
		100*(1-float64(results[1].cut)/float64(results[0].cut)))
}
