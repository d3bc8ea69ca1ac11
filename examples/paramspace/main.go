// Paramspace: a parameter-space study (paper §4.3 names these among the
// "structured multi-object applications") across a mixed fleet of
// interactive Unix hosts and a batch-queue-managed cluster.
//
// Forty study points are placed as forty instances of a StudyPoint
// class. Half the machines are ordinary Unix Hosts; half sit behind a
// simulated LoadLeveler-style queue (one job slot per CPU, non-zero
// dispatch latency), exercising the Batch Queue Host path the paper
// describes: reservations are kept in the Host object because the queue
// manager has no notion of them, and activation waits for dispatch.
//
// Run with: go run ./examples/paramspace
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"legion/internal/core"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
)

func main() {
	ctx := context.Background()
	// Four interactive Unix hosts, and four batch-managed nodes
	// (LoadLeveler-flavoured FCFS queues with a scheduler-cycle dispatch
	// delay).
	unix := sim.HostSpec{Arch: "x86", OS: "Linux", OSVer: "2.2", CPUs: 2, MemoryMB: 512, Zone: "lab"}
	batch := sim.HostSpec{Arch: "rs6000", OS: "AIX", OSVer: "4.3", CPUs: 8, MemoryMB: 2048, Zone: "lab", Batch: true}
	ms := sim.New(sim.Spec{
		Domain:  "lab",
		Options: core.Options{Seed: 7},
		Hosts:   []sim.HostSpec{unix, unix, unix, unix, batch, batch, batch, batch},
	}).MS
	defer ms.Close()

	study := ms.DefineClass("StudyPoint", nil)

	const points = 40
	fmt.Printf("placing %d study points on 4 Unix hosts + 4 batch nodes\n", points)
	t0 := time.Now()
	out, err := ms.PlaceApplication(ctx, &scheduler.RoundRobin{}, scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: study.LOID(), Count: points}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	})
	if err != nil {
		log.Fatalf("placement: %v", err)
	}
	elapsed := time.Since(t0)

	// Configure each study point with its parameter value.
	n := 0
	for _, insts := range out.Instances {
		for _, inst := range insts {
			if _, err := ms.Runtime().Call(ctx, inst, "set",
				[]string{"reynolds_number", fmt.Sprintf("%d", 1000+25*n)}); err != nil {
				log.Fatalf("configuring %v: %v", inst, err)
			}
			n++
		}
	}

	fmt.Printf("placed and configured %d instances in %v (batch dispatch latency included)\n",
		n, elapsed.Round(time.Millisecond))
	fmt.Println("\nhost occupancy:")
	for _, h := range ms.Hosts() {
		kind := "unix "
		if qlen := func() int {
			for _, p := range h.Attributes() {
				if p.Name == "host_is_batch" && p.Value.BoolVal() {
					return 1
				}
			}
			return 0
		}(); qlen == 1 {
			kind = "batch"
		}
		fmt.Printf("  %-8s (%s): %2d study points\n", h.LOID().Short(), kind, h.RunningCount())
	}

	// Spot-check one instance's configuration survived.
	first := out.Instances[0][0]
	val, err := ms.Runtime().Call(ctx, first, "get", "reynolds_number")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspot check: %s has reynolds_number=%v\n", first.Short(), val)
}
