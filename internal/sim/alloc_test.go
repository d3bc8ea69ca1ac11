package sim

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/telemetry"
)

// TestPlacementAllocBudget pins what one placement allocates end to end:
// Wrapper.Run for two instances on a warm 256-host fleet — Scheduler,
// Collection snapshot, Enactor, Host reservation tables, class, all in
// one process — and their teardown, averaged over the four generators a
// deployment rotates. It measured 281 before ranking picked k, the token
// MAC stopped allocating, a first attempt derived one context and a
// missing OPR stopped formatting its error; 133 after.
func TestPlacementAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const budget = 160
	ms := core.New("alloc", core.Options{Seed: 1, Metrics: telemetry.NewRegistry()})
	class := ms.DefineClass("Worker", nil)
	rng := rand.New(rand.NewSource(1))
	Build(ms, rng, RandomSpecs(rng, 256, "z1", "z2", "z3", "z4"))
	env := ms.Env()
	env.Cache = scheduler.NewHostCache(nil, time.Hour)
	wrapper := scheduler.Wrapper{SchedTryLimit: 2, EnactTryLimit: 1}
	req := scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 2}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	gens := []scheduler.Generator{
		scheduler.Random{}, scheduler.LoadAware{}, scheduler.CostAware{}, scheduler.IRS{NSched: 3},
	}
	ctx := context.Background()
	rt, enactor := ms.Runtime(), ms.Enactor.LOID()
	next := 0
	place := func() {
		gen := gens[next%len(gens)]
		next++
		out, err := wrapper.Run(ctx, env, enactor, gen, req)
		if err != nil || !out.Success {
			t.Fatalf("%s: placement failed: %v", gen.Name(), err)
		}
		for j, insts := range out.Instances {
			for _, inst := range insts {
				if _, err := rt.Call(ctx, out.Feedback.Resolved[j].Class, proto.MethodDestroyInstance, proto.ObjectArgs{Object: inst}); err != nil {
					t.Fatalf("destroy_instance: %v", err)
				}
			}
		}
		if _, err := rt.Call(ctx, enactor, proto.MethodCancelReservations, proto.CancelReservationsArgs{RequestID: out.RequestID}); err != nil {
			t.Fatalf("cancel_reservations: %v", err)
		}
	}
	for range gens { // warm the host cache and every generator's path
		place()
	}
	// A multiple of the rotation, so every generator weighs the same.
	if got := testing.AllocsPerRun(50*len(gens), place); got > budget {
		t.Errorf("%.1f allocations per placement, budget %d", got, budget)
	} else {
		t.Logf("%.1f allocations per placement (budget %d)", got, budget)
	}
}
