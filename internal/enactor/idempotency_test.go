package enactor

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"legion/internal/classobj"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/telemetry"
	"legion/internal/vault"
	"legion/internal/vclock"
)

// TestConcurrentEnactRunsOnce races many enact_schedule invocations for
// the same request (the orb server dispatches each request on its own
// goroutine, and the Wrapper retries after an attempt timeout while the
// first invocation may still be executing): exactly one create_instance
// pass must run, and every caller must observe the same outcome.
func TestConcurrentEnactRunsOnce(t *testing.T) {
	e := newEnv(t, 2, nil)
	ctx := context.Background()
	req := e.request(e.mapping(0), e.mapping(1))
	if fb := e.enactor.MakeReservations(ctx, req); !fb.Success {
		t.Fatalf("reserve: %+v", fb)
	}

	// Widen the race window: every call now takes a little while, so all
	// callers arrive while the first enactment is still in flight.
	e.rt.SetLatency(10*time.Millisecond, 0)
	defer e.rt.SetLatency(0, 0)

	const callers = 8
	replies := make([]proto.EnactReply, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = e.enactor.EnactSchedule(ctx, req.ID)
		}(i)
	}
	wg.Wait()

	for i, r := range replies {
		if !r.Success || len(r.Instances) != 2 {
			t.Fatalf("caller %d: %+v", i, r)
		}
		for j := range r.Instances {
			if r.Instances[j][0] != replies[0].Instances[j][0] {
				t.Errorf("caller %d saw different instance for mapping %d", i, j)
			}
		}
	}
	// Exactly one enactment ran: one instance per mapping, no duplicates
	// leaked by a second concurrent create_instance pass.
	if e.hosts[0].RunningCount() != 1 || e.hosts[1].RunningCount() != 1 {
		t.Errorf("duplicated instances: host0=%d host1=%d",
			e.hosts[0].RunningCount(), e.hosts[1].RunningCount())
	}
}

// TestConcurrentEnactWaitsOnVirtualClock: a second enact_schedule for a
// request whose enactment is in flight must park where the virtual
// engine can see it. A waiter parked outside the clock leaves the engine
// waiting for a goroutine that never parks, and no virtual time passes.
func TestConcurrentEnactWaitsOnVirtualClock(t *testing.T) {
	vc := vclock.NewVirtual()
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(telemetry.NewRegistry())
	rt.SetClock(vc)
	v := vault.New(rt, vault.Config{Zone: "z1"})
	h := host.New(rt, host.Config{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1", Vaults: []loid.LOID{v.LOID()}})
	c := classobj.New(rt, classobj.Config{Name: "Worker"})
	e := New(rt, Config{CallTimeout: 5 * time.Second})
	env := &env{rt: rt, vault: v, hosts: []*host.Host{h}, class: c, enactor: e}
	rt.SetLatency(10*time.Millisecond, 0)
	ctx := context.Background()

	var replies [2]proto.EnactReply
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		vc.Run(func() {
			req := env.request(env.mapping(0))
			if fb := e.MakeReservations(ctx, req); !fb.Success {
				t.Errorf("reserve: %+v", fb)
				return
			}
			callers := vc.NewGroup()
			callers.Add(len(replies))
			for i := range replies {
				vc.Go(func() {
					defer callers.Done()
					replies[i] = e.EnactSchedule(ctx, req.ID)
				})
			}
			_ = callers.Wait(ctx)
		})
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("two enactments of one request hung the virtual engine")
	}
	for i, r := range replies {
		if !r.Success || len(r.Instances) != 1 || r.Instances[0][0] != replies[0].Instances[0][0] {
			t.Errorf("caller %d: %+v, want caller 0's enactment %+v", i, r, replies[0])
		}
	}
	if n := h.RunningCount(); n != 1 {
		t.Errorf("host runs %d instances, want the one enactment's", n)
	}
}

// TestFailedEnactOutcomeRecorded verifies a failed enactment is final:
// rollback cancelled the reservations, so a retry returns the recorded
// failure without re-running create_instance against dead tokens.
func TestFailedEnactOutcomeRecorded(t *testing.T) {
	e := newEnv(t, 1, nil)
	ctx := context.Background()
	req := e.request(e.mapping(0))
	if fb := e.enactor.MakeReservations(ctx, req); !fb.Success {
		t.Fatalf("reserve: %+v", fb)
	}

	var mu sync.Mutex
	creates := 0
	e.rt.SetFaultInjector(func(target loid.LOID, method string) error {
		if method != proto.MethodCreateInstance {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		creates++
		return errors.New("class object rejects the placement")
	})
	defer e.rt.SetFaultInjector(nil)

	first := e.enactor.EnactSchedule(ctx, req.ID)
	if first.Success {
		t.Fatalf("enact succeeded despite permanent create failure")
	}
	mu.Lock()
	after := creates
	mu.Unlock()

	second := e.enactor.EnactSchedule(ctx, req.ID)
	if second.Success || second.Detail != first.Detail {
		t.Errorf("retry outcome diverged: first=%+v second=%+v", first, second)
	}
	mu.Lock()
	defer mu.Unlock()
	if creates != after {
		t.Errorf("retry re-ran create_instance: %d calls, want %d", creates, after)
	}
}

// TestRequestReaperDropsAbandonedEpisodes: the Wrapper mints a fresh
// request ID per make_reservations transport attempt, so orphaned
// episodes must be swept after the TTL instead of growing without bound
// — while successfully enacted requests are retained. The sweep runs on
// the next MakeReservations.
func TestRequestReaperDropsAbandonedEpisodes(t *testing.T) {
	vc := vclock.NewVirtual()
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(telemetry.NewRegistry())
	rt.SetClock(vc)
	v := vault.New(rt, vault.Config{Zone: "z1"})
	h := host.New(rt, host.Config{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1", Vaults: []loid.LOID{v.LOID()}})
	c := classobj.New(rt, classobj.Config{Name: "Worker"})
	e := New(rt, Config{CallTimeout: 5 * time.Second})
	env := &env{rt: rt, vault: v, hosts: []*host.Host{h}, class: c, enactor: e}
	ctx := context.Background()
	pastTTL := requestTTL + time.Second

	vc.Run(func() {
		abandoned := env.request(env.mapping(0))
		if fb := e.MakeReservations(ctx, abandoned); !fb.Success {
			t.Fatalf("reserve abandoned: %+v", fb)
		}
		enacted := env.request(env.mapping(0))
		if fb := e.MakeReservations(ctx, enacted); !fb.Success {
			t.Fatalf("reserve enacted: %+v", fb)
		}
		if r := e.EnactSchedule(ctx, enacted.ID); !r.Success {
			t.Fatalf("enact: %+v", r)
		}

		_ = vc.Sleep(ctx, pastTTL)
		next := env.request(env.mapping(0))
		if fb := e.MakeReservations(ctx, next); !fb.Success {
			t.Fatalf("reserve next: %+v", fb)
		}
		if _, err := e.Enacted(abandoned.ID); !errors.Is(err, ErrUnknownRequest) {
			t.Errorf("abandoned episode survived the reaper: err=%v", err)
		}
		if got, err := e.Enacted(enacted.ID); err != nil || len(got) != 1 {
			t.Errorf("enacted episode was reaped: %v %v", got, err)
		}
		if _, err := e.Enacted(next.ID); !errors.Is(err, ErrNotReserved) {
			t.Errorf("the reservation that ran the sweep was reaped: err=%v", err)
		}
	})
}

// TestDefaultAttemptTimeoutSplitsBudget: a hung Host must not consume
// the whole budget in one attempt, so each of the three default attempts
// gets a third of the CallTimeout.
func TestDefaultAttemptTimeoutSplitsBudget(t *testing.T) {
	env := newEnv(t, 1, nil)
	e := New(env.rt, Config{CallTimeout: 30 * time.Second})
	if p := e.call.Policy(); p.AttemptTimeout != 10*time.Second {
		t.Errorf("AttemptTimeout = %v, want Budget/3 = 10s", p.AttemptTimeout)
	}
}
