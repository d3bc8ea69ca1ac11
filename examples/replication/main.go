// Replication: "k out of n" scheduling (paper §3.3) for a replicated
// service. The Scheduler names an equivalence class of candidate hosts
// and asks the Enactor to bind any 3 of them — including surviving the
// refusal of the most attractive candidate, which a fixed mapping could
// not.
//
// Run with: go run ./examples/replication
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"legion/internal/core"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
)

func main() {
	ctx := context.Background()
	// Five candidate machines; the least-loaded one (which every naive
	// scheduler would pick first) refuses all requests — its
	// administrator said no (site autonomy).
	var specs []sim.HostSpec
	for _, l := range []float64{0.05, 0.3, 0.5, 0.6, 0.7} {
		specs = append(specs, sim.HostSpec{Arch: "x86", OS: "Linux", OSVer: "2.2",
			CPUs: 4, MemoryMB: 512, Zone: "campus", Load: l})
	}
	fleet := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 5}, Hosts: specs})
	ms := fleet.MS
	defer ms.Close()
	fleet.Hosts[0].SetPolicy(func(proto.MakeReservationArgs) error {
		return fmt.Errorf("%w: maintenance window", host.ErrPolicy)
	})

	replicas := ms.DefineClass("Replica", nil)
	out, err := ms.PlaceApplication(ctx, scheduler.Replicated{N: 5}, scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: replicas.LOID(), Count: 3}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	})
	if err != nil {
		log.Fatalf("placement: %v", err)
	}
	fmt.Printf("asked for 3 of 5 candidate hosts; Enactor bound:\n")
	for i, m := range out.Feedback.Resolved {
		fmt.Printf("  replica %d on %s\n", i+1, m.Host.Short())
	}
	fmt.Printf("(reservations requested: %d, granted: %d — the refusing host cost one probe, no retry storm)\n",
		out.Feedback.Stats.ReservationsRequested, out.Feedback.Stats.ReservationsGranted)

	// All three replicas are live, on distinct hosts.
	hosts := map[loid.LOID]bool{}
	for _, insts := range out.Instances {
		for _, inst := range insts {
			if r, err := ms.Runtime().Call(ctx, inst, "ping", nil); err != nil || r != "pong" {
				log.Fatalf("replica %v: %v %v", inst, r, err)
			}
		}
	}
	for _, m := range out.Feedback.Resolved {
		hosts[m.Host] = true
	}
	fmt.Printf("%d live replicas on %d distinct hosts\n", len(out.Instances), len(hosts))
}
