package monitor

import (
	"context"
	"slices"
	"testing"
	"time"

	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// TestOnEventAsyncOnVirtualClock: under a virtual clock the dispatcher is
// a goroutine registered with the clock, so its handler may sleep in
// virtual time; each event is handled only once the goroutine that
// delivered it has parked; and a subscription stopped before the clock
// ever ran its dispatcher stops at once instead of waiting for it.
func TestOnEventAsyncOnVirtualClock(t *testing.T) {
	vc := vclock.NewVirtual()
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(telemetry.NewRegistry())
	rt.SetClock(vc)
	m := New(rt)

	never := m.OnEventAsync(1, func(proto.NotifyArgs) { t.Error("a stopped subscription's handler ran") })
	never()

	var log []string
	stop := m.OnEventAsync(4, func(ev proto.NotifyArgs) {
		log = append(log, "handle "+ev.Trigger)
		_ = vc.Sleep(context.Background(), time.Second)
	})
	vc.Run(func() {
		m.deliver(proto.NotifyArgs{Trigger: "a"})
		m.deliver(proto.NotifyArgs{Trigger: "b"})
		log = append(log, "delivered")
		_ = vc.Sleep(context.Background(), time.Minute)
	})
	stop()

	if want := []string{"delivered", "handle a", "handle b"}; !slices.Equal(log, want) {
		t.Errorf("log %v, want %v", log, want)
	}
	if d := m.QueueDepth(); d != 0 {
		t.Errorf("queue depth %d after the handlers ran", d)
	}
	if n := rt.Metrics().CounterValue("legion_monitor_events_delivered_total"); n != 2 {
		t.Errorf("%d events delivered, want 2", n)
	}
}

// TestOnEventAsyncStopWaitsForTheHandler: a stop called while the handler
// sleeps on a virtual clock returns once the handler has ended, at the
// virtual instant it ends. It waits on the clock: behind a bare channel,
// the stopper held virtual time still and the handler's sleep never
// ended.
func TestOnEventAsyncStopWaitsForTheHandler(t *testing.T) {
	vc := vclock.NewVirtual()
	start := vc.Now()
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(telemetry.NewRegistry())
	rt.SetClock(vc)
	m := New(rt)

	var log []string
	stop := m.OnEventAsync(4, func(ev proto.NotifyArgs) {
		log = append(log, "handle "+ev.Trigger)
		_ = vc.Sleep(context.Background(), time.Second)
		log = append(log, "handled "+ev.Trigger)
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		vc.Run(func() {
			m.deliver(proto.NotifyArgs{Trigger: "a"})
			m.deliver(proto.NotifyArgs{Trigger: "b"})
			_ = vc.Sleep(context.Background(), time.Millisecond) // a's handler is asleep
			stop()
			log = append(log, "stopped at "+vc.Since(start).String())
			_ = vc.Sleep(context.Background(), time.Minute)
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stop never returned: the handler it waits for is stuck on virtual time")
	}
	if want := []string{"handle a", "handled a", "stopped at 1s"}; !slices.Equal(log, want) {
		t.Errorf("log %v, want %v", log, want)
	}
	if n := m.DroppedEvents(); n != 1 {
		t.Errorf("%d events dropped at stop, want 1 (b, still queued)", n)
	}
}
