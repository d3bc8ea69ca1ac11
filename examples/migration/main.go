// Migration: the full §3.5 monitoring loop plus §2.1 migration.
//
// A worker object with accumulated state runs on a host whose background
// load spikes. The Monitor has registered an RGE outcall for the
// "$host_load > 0.8" trigger; when the host's periodic reassessment fires
// it, a Rebalancer picks the least-loaded host from the Collection's
// records, shuts the object down (OPR to its Vault), moves the passive
// state, and reactivates the object — same LOID, same state — there.
//
// Run with: go run ./examples/migration
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"legion/internal/classobj"
	"legion/internal/core"
	"legion/internal/proto"
	"legion/internal/rebalance"
	"legion/internal/sim"
)

func main() {
	ctx := context.Background()
	unix := sim.HostSpec{Arch: "x86", OS: "Linux", OSVer: "2.2", CPUs: 4, MemoryMB: 1024, Zone: "campus"}
	fleet := sim.New(sim.Spec{
		Domain:  "uva",
		Options: core.Options{Seed: 3},
		Hosts:   []sim.HostSpec{unix, unix, unix},
	})
	ms, hosts := fleet.MS, fleet.Hosts
	defer ms.Close()

	// Start a worker and give it state worth preserving.
	workers := ms.DefineClass("Worker", nil)
	insts, placement, err := workers.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	worker := insts[0]
	for i := 0; i < 5; i++ {
		if _, err := ms.Runtime().Call(ctx, worker, "ping", nil); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := ms.Runtime().Call(ctx, worker, "set", []string{"checkpoint", "iteration-500"}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worker %s running on %s with checkpoint state\n", worker.Short(), placement.Host.Short())

	// Register overload triggers on every host (Monitor -> RGE), and a
	// Rebalancer that turns their events into migrations.
	if err := ms.WatchLoad(ctx, 0.8); err != nil {
		log.Fatal(err)
	}
	rb := rebalance.New(ms, rebalance.Config{Classes: []*classobj.Class{workers}})
	if err := rb.Start(); err != nil {
		log.Fatal(err)
	}
	defer rb.Stop()
	ms.Monitor.OnEvent(func(ev proto.NotifyArgs) {
		fmt.Printf("trigger %q fired on %s — rebalancing\n", ev.Trigger, ev.Source.Short())
	})

	// Background load on the worker's host spikes; the periodic
	// reassessment notices.
	fmt.Printf("load spike on %s\n", placement.Host.Short())
	for _, h := range hosts {
		if h.LOID() == placement.Host {
			h.SetExternalLoad(0.95)
		}
	}
	ms.ReassessAll(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if h, _, err := workers.WhereIs(worker); err == nil && h != placement.Host {
			fmt.Printf("worker migrated to %s\n", h.Short())
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("no migration happened")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Same LOID, same state, new host.
	val, err := ms.Runtime().Call(ctx, worker, "get", "checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	if val != "iteration-500" {
		log.Fatalf("checkpoint=%v after the move, want iteration-500: state was lost", val)
	}
	hostNow, vaultNow, _ := workers.WhereIs(worker)
	fmt.Printf("worker %s now on %s (vault %s), checkpoint=%v — state survived the move\n",
		worker.Short(), hostNow.Short(), vaultNow.Short(), val)
	for _, h := range hosts {
		fmt.Printf("  %s: load %.2f, %d objects\n", h.LOID().Short(), h.Load(), h.RunningCount())
	}
}
