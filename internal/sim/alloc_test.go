package sim

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// TestPlacementAllocBudget pins what one placement allocates end to end:
// Wrapper.Run for two instances on a warm 256-host fleet — Scheduler,
// Collection snapshot, Enactor, Host reservation tables, class, all in
// one process — and their teardown, averaged over the four generators a
// deployment rotates. On the wall clock it measured 281 before ranking
// picked k, the token MAC stopped allocating, a first attempt derived one
// context and a missing OPR stopped formatting its error; 131 after; 117
// since a wall-clock deadline is a field until somebody waits on it. On
// the virtual clock, with link latency so that every call parks and no
// fan-out, it measures 105 (217 before), now that a sleep allocates
// nothing and an event is part of what it wakes; the budget is that
// reading and 15 %. The wall arm reads 108 since a fan-out round is one
// allocation and a metric lookup none. The tcp arm is the same placement
// from a second runtime over one loopback connection, both ends counted:
// 226–230 when every frame and every round got fresh goroutines, 169–173
// since they run on parked workers with pooled reply slots.
func TestPlacementAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	t.Run("wall", func(t *testing.T) {
		placementAllocs(t, nil, false, 115)
	})
	t.Run("virtual", func(t *testing.T) {
		vc := vclock.NewVirtual()
		vc.Run(func() { placementAllocs(t, vc, false, 120) })
	})
	t.Run("tcp", func(t *testing.T) {
		placementAllocs(t, nil, true, 185)
	})
}

// placementAllocs measures the placement on clock (nil is the wall
// clock; a virtual one also gets 2–3 ms of latency on every call) and
// fails t if it allocates more than budget. With tcp the client is a
// second runtime that reaches the metasystem through its listener and
// finds the services in its directory, as legion-run does.
func placementAllocs(t *testing.T, clock vclock.Clock, tcp bool, budget float64) {
	opts := core.Options{Seed: 1, Metrics: telemetry.NewRegistry(), Clock: clock}
	if clock != nil {
		opts.Parallelism = 1 // the engine cannot see fanout's goroutines
	}
	ms := core.New("alloc", opts)
	class := ms.DefineClass("Worker", nil)
	rng := rand.New(rand.NewSource(1))
	Build(ms, rng, RandomSpecs(rng, 256, "z1", "z2", "z3", "z4"))
	if clock != nil {
		ms.Runtime().SetLatency(2*time.Millisecond, time.Millisecond)
	}
	env := ms.Env()
	env.Cache = scheduler.NewHostCache(clock, time.Hour)
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
	if tcp {
		addr, err := ms.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ms.Close()
		rt = orb.NewRuntime("alloc-client")
		rt.SetMetrics(telemetry.NewRegistry())
		defer rt.Close()
		rt.BindDomain(ms.Domain(), addr)
		res, err := rt.Call(ctx, proto.DirectoryLOID(ms.Domain()), proto.MethodLookupServices, nil)
		if err != nil {
			t.Fatalf("directory lookup: %v", err)
		}
		dir := res.(proto.ServicesReply)
		env = &scheduler.Env{RT: rt, Collection: dir.Collection, Cache: env.Cache, Rand: env.Rand}
		enactor = dir.Enactor
	}
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
		t.Errorf("%.1f allocations per placement, budget %v", got, budget)
	} else {
		t.Logf("%.1f allocations per placement (budget %v)", got, budget)
	}
}
