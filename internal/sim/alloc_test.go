package sim

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/loid"
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
// nothing and an event is part of what it wakes. The wall arm read 108
// since a fan-out round is one allocation and a metric lookup none. The
// tcp arm is the same placement
// from a second runtime over one loopback connection, both ends counted:
// 226–230 when every frame and every round got fresh goroutines, 169–173
// since they run on parked workers with pooled reply slots. Since a span
// is its own context (3 allocations → 1), a payload encodes in place and
// decodes into the value it returns (1 → 0 and 2 → 1), and a frame's
// handler is pooled, the arms read 100 / 97 / 131 (108 / 105 / 173
// before). Since a deadline is one object (its context; End is no
// closure) and an Enactor round keeps its books in one slab of slots,
// they read 88 / 85 / 118; each budget is its reading plus the margin it
// had: 6 %, 15 % and 7 %.
func TestPlacementAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	t.Run("wall", func(t *testing.T) {
		placementAllocs(t, nil, false, 93)
	})
	t.Run("virtual", func(t *testing.T) {
		vc := vclock.NewVirtual()
		vc.Run(func() { placementAllocs(t, vc, false, 97) })
	})
	t.Run("tcp", func(t *testing.T) {
		placementAllocs(t, nil, true, 126+tcpRaceSlack)
	})
}

// placementAllocs fails t if one placement of the fixture allocates more
// than budget.
func placementAllocs(t *testing.T, clock vclock.Clock, tcp bool, budget float64) {
	place, _ := placementFixture(t, clock, tcp)
	// A multiple of the rotation, so every generator weighs the same.
	if got := testing.AllocsPerRun(50*len(placementGens), place); got > budget {
		t.Errorf("%.1f allocations per placement, budget %v", got, budget)
	} else {
		t.Logf("%.1f allocations per placement (budget %v)", got, budget)
	}
}

// TestPlacementCallCount pins, at equality, how many ORB calls the same
// placements make — counted by a tracer on every runtime involved, so on
// the tcp arm a call that crosses the socket and the calls it causes
// behind it all count — and on the virtual arm how many events the
// engine fires for them: per rotation of the four generators, two
// instances placed and torn down by each. A change that adds a round
// trip or a timer fails here, with the count, before any benchmark runs.
func TestPlacementCallCount(t *testing.T) {
	t.Run("wall", func(t *testing.T) {
		placementCalls(t, nil, false, 80, 0)
	})
	t.Run("virtual", func(t *testing.T) {
		vc := vclock.NewVirtual()
		vc.Run(func() { placementCalls(t, vc, false, 80, 80) })
	})
	t.Run("tcp", func(t *testing.T) {
		placementCalls(t, nil, true, 104, 0)
	})
}

// placementCalls runs the fixture for five rotations and fails t unless
// each made exactly wantCalls ORB calls and, on a virtual clock, fired
// exactly wantEvents engine events.
func placementCalls(t *testing.T, clock vclock.Clock, tcp bool, wantCalls int64, wantEvents int) {
	place, runtimes := placementFixture(t, clock, tcp)
	var calls atomic.Int64
	for _, rt := range runtimes {
		rt.SetTracer(func(string, loid.LOID, string, time.Duration, error) { calls.Add(1) })
	}
	vc, _ := clock.(*vclock.Virtual)
	for r := 0; r < 5; r++ {
		calls.Store(0)
		if vc != nil {
			vc.StartTrace()
		}
		for range placementGens {
			place()
		}
		if got := calls.Load(); got != wantCalls {
			t.Errorf("rotation %d: %d ORB calls, want %d", r, got, wantCalls)
		}
		if vc != nil {
			if got := len(vc.Trace()); got != wantEvents {
				t.Errorf("rotation %d: %d engine events, want %d", r, got, wantEvents)
			}
		}
	}
}

// placementGens is the rotation the fixture places with.
var placementGens = []scheduler.Generator{
	scheduler.Random{}, scheduler.LoadAware{}, scheduler.CostAware{}, scheduler.IRS{NSched: 3},
}

// placementFixture builds a warm 256-host metasystem on clock (nil is
// the wall clock; a virtual one also gets 2–3 ms of latency on every
// call) and returns a function that places two instances with the next
// generator of the rotation and tears them down, beside the runtimes its
// calls go through. With tcp the client is a second runtime that reaches
// the metasystem through its listener and finds the services in its
// directory, as legion-run does.
func placementFixture(t *testing.T, clock vclock.Clock, tcp bool) (place func(), runtimes []*orb.Runtime) {
	ms := core.New("alloc", core.Options{Seed: 1, Metrics: telemetry.NewRegistry(), Clock: clock})
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
	ctx := context.Background()
	rt, enactor := ms.Runtime(), ms.Enactor.LOID()
	runtimes = []*orb.Runtime{rt}
	if tcp {
		addr, err := ms.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ms.Close() })
		rt = orb.NewRuntime("alloc-client")
		rt.SetMetrics(telemetry.NewRegistry())
		t.Cleanup(func() { rt.Close() })
		runtimes = append(runtimes, rt)
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
	place = func() {
		gen := placementGens[next%len(placementGens)]
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
	for range placementGens { // warm the host cache and every generator's path
		place()
	}
	return place, runtimes
}
