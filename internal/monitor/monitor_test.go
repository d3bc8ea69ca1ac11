package monitor

import (
	"context"
	"sync"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/vault"
)

func newHostEnv(t *testing.T) (*orb.Runtime, *host.Host) {
	t.Helper()
	rt := orb.NewRuntime("uva")
	v := vault.New(rt, vault.Config{Zone: "z1"})
	h := host.New(rt, host.Config{
		Arch: "x86", OS: "Linux", CPUs: 2, MemoryMB: 256, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()},
	})
	return rt, h
}

func TestWatchAndDeliver(t *testing.T) {
	rt, h := newHostEnv(t)
	m := New(rt)
	ctx := context.Background()

	var mu sync.Mutex
	var got []proto.NotifyArgs
	m.OnEvent(func(ev proto.NotifyArgs) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})

	if err := m.Watch(ctx, h.LOID(), "overload", "$host_load > 0.8"); err != nil {
		t.Fatal(err)
	}
	h.SetExternalLoad(0.3)
	h.Reassess(ctx)
	mu.Lock()
	if len(got) != 0 {
		t.Fatalf("fired below threshold: %v", got)
	}
	mu.Unlock()

	h.SetExternalLoad(0.95)
	h.Reassess(ctx)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("events: %d", len(got))
	}
	ev := got[0]
	if ev.Source != h.LOID() || ev.Trigger != "overload" {
		t.Errorf("event: %+v", ev)
	}
	am := attr.FromPairs(ev.Attrs)
	if am["host_load"].FloatVal() <= 0.8 {
		t.Errorf("event snapshot load: %v", am["host_load"])
	}
}

func TestWatchBadGuard(t *testing.T) {
	rt, h := newHostEnv(t)
	m := New(rt)
	if err := m.Watch(context.Background(), h.LOID(), "bad", "((("); err == nil {
		t.Error("bad guard accepted")
	}
}

func TestWatchDeadHost(t *testing.T) {
	rt, _ := newHostEnv(t)
	m := New(rt)
	ghost := loid.LOID{Domain: "uva", Class: "Host", Instance: 99}
	if err := m.Watch(context.Background(), ghost, "t", "true"); err == nil {
		t.Error("watch on dead host succeeded")
	}
}

// TestMultipleHandlers: every handler sees every event, in the order
// the events arrived.
func TestMultipleHandlers(t *testing.T) {
	rt, _ := newHostEnv(t)
	m := New(rt)
	n1, n2 := 0, 0
	var last proto.NotifyArgs
	m.OnEvent(func(proto.NotifyArgs) { n1++ })
	m.OnEvent(func(ev proto.NotifyArgs) { n2++; last = ev })
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := rt.Call(ctx, m.LOID(), proto.MethodNotify, proto.NotifyArgs{
			Source: loid.LOID{Domain: "uva", Class: "Host", Instance: uint64(i + 1)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n1 != 20 || n2 != 20 {
		t.Errorf("handlers ran %d/%d times", n1, n2)
	}
	if last.Source.Instance != 20 {
		t.Errorf("last event: %+v", last)
	}
}

func TestNotifyBadArg(t *testing.T) {
	rt, _ := newHostEnv(t)
	m := New(rt)
	if _, err := rt.Call(context.Background(), m.LOID(), proto.MethodNotify, 42); err == nil {
		t.Error("bad arg accepted")
	}
}

// TestWatchIdempotent is the ISSUE 5 regression: every repeated Watch on
// the same (host, trigger) used to append another outcall, so one
// trigger firing notified the Monitor N times — and N grew every time a
// reconnecting Monitor re-registered. The Host now dedupes outcalls per
// Monitor, making Watch idempotent.
func TestWatchIdempotent(t *testing.T) {
	rt, h := newHostEnv(t)
	m := New(rt)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if err := m.Watch(ctx, h.LOID(), "overload", "$host_load > 0.8"); err != nil {
			t.Fatal(err)
		}
	}
	if n := h.Triggers().OutcallCount("overload"); n != 1 {
		t.Fatalf("outcalls after 3 Watches: %d, want 1", n)
	}

	var mu sync.Mutex
	events := 0
	m.OnEvent(func(proto.NotifyArgs) {
		mu.Lock()
		events++
		mu.Unlock()
	})
	h.SetExternalLoad(0.95)
	h.Reassess(ctx)
	mu.Lock()
	defer mu.Unlock()
	if events != 1 {
		t.Fatalf("one firing delivered %d events, want 1", events)
	}

	// A second Monitor is a distinct subscriber, not a duplicate.
	m2 := New(rt)
	if err := m2.Watch(ctx, h.LOID(), "overload", "$host_load > 0.8"); err != nil {
		t.Fatal(err)
	}
	if n := h.Triggers().OutcallCount("overload"); n != 2 {
		t.Fatalf("outcalls with two Monitors: %d, want 2", n)
	}
}

// TestWatchHonorsCallerDeadline: a caller deadline shorter than the
// default 30s budget must be respected rather than replaced.
func TestWatchHonorsCallerDeadline(t *testing.T) {
	rt, h := newHostEnv(t)
	m := New(rt)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // deadline definitely past
	if err := m.Watch(ctx, h.LOID(), "overload", "$host_load > 0.8"); err == nil {
		t.Fatal("Watch with expired caller deadline should fail")
	}
}

// TestOnEventAsyncDecouplesDelivery: events queue behind the bounded
// channel and the handler runs off the delivering goroutine; overflow is
// dropped and counted, never blocking delivery.
func TestOnEventAsyncDecouplesDelivery(t *testing.T) {
	rt, _ := newHostEnv(t)
	m := New(rt)

	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	var mu sync.Mutex
	handled := 0
	stop := m.OnEventAsync(2, func(proto.NotifyArgs) {
		entered <- struct{}{}
		<-release // simulate a slow migration episode
		mu.Lock()
		handled++
		mu.Unlock()
	})
	defer stop()

	// First event parks the dispatcher inside the handler...
	m.deliver(proto.NotifyArgs{Trigger: "overload"})
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never entered")
	}
	// ...then a burst of 4 against the busy subscription: 2 queue
	// (depth 2), 2 drop.
	for i := 0; i < 4; i++ {
		m.deliver(proto.NotifyArgs{Trigger: "overload"})
	}
	// Delivery returned immediately for all five (we are here), with the
	// overflow counted as dropped.
	deadline := time.After(2 * time.Second)
	for m.dropped.Value() < 2 {
		select {
		case <-deadline:
			t.Fatalf("dropped = %d, want >= 2", m.dropped.Value())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	for {
		mu.Lock()
		n := handled
		mu.Unlock()
		if n >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("handled = %d, want 3", n)
		case <-time.After(time.Millisecond):
		}
	}
	if d := m.QueueDepth(); d != 0 {
		t.Errorf("queue depth after drain: %d", d)
	}
}

// TestOnEventAsyncStopDetaches: after stop, further events bypass the
// subscription entirely.
func TestOnEventAsyncStopDetaches(t *testing.T) {
	rt, _ := newHostEnv(t)
	m := New(rt)
	var mu sync.Mutex
	n := 0
	stop := m.OnEventAsync(4, func(proto.NotifyArgs) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	m.deliver(proto.NotifyArgs{Trigger: "t"})
	stop()
	before := func() int { mu.Lock(); defer mu.Unlock(); return n }()
	m.deliver(proto.NotifyArgs{Trigger: "t"})
	time.Sleep(10 * time.Millisecond)
	if after := func() int { mu.Lock(); defer mu.Unlock(); return n }(); after != before {
		t.Errorf("handler ran after stop: %d -> %d", before, after)
	}
	stop() // idempotent
}
