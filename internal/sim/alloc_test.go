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

// TestPlacementAllocBudget bounds what one placement allocates end to
// end: Wrapper.Run for two instances on a warm 256-host fleet —
// Scheduler, Collection snapshot, Enactor, Host reservation tables,
// class, all in one process — and their teardown, averaged over the four
// generators a deployment rotates. The wall arm runs on the wall clock;
// the virtual arm on a virtual one, with link latency so that every call
// parks and no fan-out; the tcp arm is the wall arm's placement from a
// second runtime over one loopback connection, both ends counted. Each
// budget is its arm's reading plus a fixed margin, 6 %, 15 % and 7 %,
// over 49, 46 and 83 allocations per placement (Go 1.24, linux/amd64);
// a change that lowers a reading lowers its budget to the new reading
// plus the same margin. TestPlacementAllocLedger names the package each
// allocation of the virtual arm comes from.
func TestPlacementAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	t.Run("wall", func(t *testing.T) {
		placementAllocs(t, nil, false, 52)
	})
	t.Run("virtual", func(t *testing.T) {
		vc := vclock.NewVirtual()
		vc.Run(func() { placementAllocs(t, vc, false, 53+raceSlack) })
	})
	t.Run("tcp", func(t *testing.T) {
		placementAllocs(t, nil, true, 89+raceSlack)
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
	fleet := Build(ms, rng, RandomSpecs(rng, 256, "z1", "z2", "z3", "z4"))
	// Every host's breaker exists before the first placement, as it does
	// once a long run has touched them all: the set's LOID index is a
	// hash trie, so what its first touches allocate varies by process.
	for _, h := range fleet.Hosts {
		ms.Enactor.Breakers().ForLOID(h.LOID())
	}
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
