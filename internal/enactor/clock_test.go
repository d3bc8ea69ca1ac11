package enactor

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/classobj"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/resilient"
	"legion/internal/sched"
	"legion/internal/telemetry"
	"legion/internal/vault"
	"legion/internal/vclock"
)

// TestStandaloneServicesRetryOnRuntimeClock: an Enactor built on a
// virtual runtime without a Retry.Clock or Breakers of its own backs off,
// and cools its breakers down, on the runtime's clock. core.New fills
// both in for the services it builds; a standalone one must too, or its
// backoff sleeps on the wall clock and takes no virtual time. The
// Router's half is in internal/collection.
func TestStandaloneServicesRetryOnRuntimeClock(t *testing.T) {
	const backoff = 50 * time.Millisecond
	vc := vclock.NewVirtual()
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(telemetry.NewRegistry())
	rt.SetClock(vc)
	v := vault.New(rt, vault.Config{Zone: "z1"})
	h := host.New(rt, host.Config{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1", Vaults: []loid.LOID{v.LOID()}})
	c := classobj.New(rt, classobj.Config{Name: "Worker"})
	e := New(rt, Config{
		Retry:       resilient.Policy{MaxAttempts: 2, BaseDelay: backoff, Jitter: -1},
		Parallelism: 1,
	})
	request := func() sched.RequestList {
		return sched.RequestList{
			ID:      e.NewRequestID(),
			Masters: []sched.Master{{Mappings: []sched.Mapping{{Class: c.LOID(), Host: h.LOID(), Vault: v.LOID()}}}},
			Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
		}
	}
	ctx := context.Background()
	var faulted atomic.Bool
	rt.SetFaultInjector(func(l loid.LOID, _ string) error {
		if l == h.LOID() && faulted.CompareAndSwap(false, true) {
			return orb.ErrInjectedFault
		}
		return nil
	})

	vc.Run(func() {
		t0 := vc.Now()
		req := request()
		if fb := e.MakeReservations(ctx, req); !fb.Success {
			t.Fatalf("one fault was not absorbed: %+v", fb)
		}
		if took := vc.Since(t0); took != backoff {
			t.Errorf("reservation with one retry took %v of virtual time, want the %v backoff", took, backoff)
		}
		if err := e.CancelReservations(ctx, req.ID); err != nil {
			t.Fatalf("cancel: %v", err)
		}

		// Kill the host: its breaker opens, and cools down on the
		// runtime's clock.
		rt.SetFaultInjector(func(l loid.LOID, method string) error {
			if l == h.LOID() && method == proto.MethodMakeReservation {
				return orb.ErrInjectedFault
			}
			return nil
		})
		br := e.Breakers().ForLOID(h.LOID())
		for i := 0; br.State() != resilient.Open; i++ {
			if i == 10 {
				t.Fatal("breaker never opened on a dead host")
			}
			e.MakeReservations(ctx, request())
		}
		if err := vc.Sleep(ctx, 2*time.Second); err != nil { // the default cooldown
			t.Fatal(err)
		}
		if st := br.State(); st != resilient.HalfOpen {
			t.Errorf("breaker after its cooldown in virtual time: %v, want half-open", st)
		}
	})
}
