// Quickstart: stand up a small Legion metasystem, define an object class,
// and place six instances with the Improved Random Scheduler through the
// full Figure 3 pipeline (Collection query -> schedule -> Enactor
// reservations -> create_instance on the class).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"legion/internal/core"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
)

func main() {
	ctx := context.Background()

	// One administrative domain with a vault and three hosts.
	unix := sim.HostSpec{Arch: "x86", OS: "Linux", OSVer: "2.2", CPUs: 4, MemoryMB: 1024, Zone: "campus"}
	ms := sim.New(sim.Spec{
		Domain:  "uva",
		Options: core.Options{Seed: 42},
		Hosts:   []sim.HostSpec{unix, unix, unix},
	}).MS
	defer ms.Close()
	fmt.Printf("metasystem %q: %d hosts, %d vault(s), collection holds %d records\n",
		ms.Domain(), len(ms.Hosts()), len(ms.Vaults()), ms.Collection.Size())

	// Define a user object class with one implementation.
	workers := ms.DefineClass("Worker", []proto.Implementation{
		{Arch: "x86", OS: "Linux"},
	})

	// Place six instances with IRS (Figures 8-9): one Collection lookup,
	// master + variant schedules, Enactor negotiation.
	out, err := ms.PlaceApplication(ctx, scheduler.IRS{NSched: 4}, scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: workers.LOID(), Count: 6}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	})
	if err != nil {
		log.Fatalf("placement failed: %v", err)
	}
	fmt.Printf("placed %d instances (schedule attempts: %d, reservations granted: %d)\n",
		len(out.Instances), out.SchedAttempts, out.Feedback.Stats.ReservationsGranted)

	// The instances are live Legion objects: invoke a method on each.
	for i, insts := range out.Instances {
		for _, inst := range insts {
			reply, err := ms.Runtime().Call(ctx, inst, "ping", nil)
			if err != nil {
				log.Fatalf("ping %v: %v", inst, err)
			}
			hostL, _, _ := workers.WhereIs(inst)
			fmt.Printf("  mapping %d: %s on %s -> %v\n", i, inst.Short(), hostL.Short(), reply)
		}
	}

	// Show the per-host distribution.
	fmt.Println("host occupancy:")
	for _, h := range ms.Hosts() {
		fmt.Printf("  %s: %d objects, load %.2f\n", h.LOID().Short(), h.RunningCount(), h.Load())
	}
}
