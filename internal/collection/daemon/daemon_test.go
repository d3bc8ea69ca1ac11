package daemon

import (
	"context"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/collection"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/nws"
	"legion/internal/orb"
	"legion/internal/resilient"
	"legion/internal/telemetry"
	"legion/internal/vault"
	"legion/internal/vclock"
)

func setup(t *testing.T) (*orb.Runtime, *collection.Collection, *host.Host, *Daemon) {
	t.Helper()
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(telemetry.NewRegistry()) // the daemon's counters start at zero
	v := vault.New(rt, vault.Config{Zone: "z1"})
	h := host.New(rt, host.Config{
		Arch: "x86", OS: "Linux", CPUs: 2, MemoryMB: 256, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()},
	})
	c := collection.New(rt, nil)
	d := New(rt, Config{Interval: 5 * time.Millisecond, Credential: "cred"})
	d.Watch(h.LOID())
	d.PushInto(c.LOID())
	return rt, c, h, d
}

// stats reads a daemon's sweep and error counts off its runtime's
// registry, as /metrics serves them.
func stats(d *Daemon) (sweeps, errs int64) {
	reg := d.rt.Metrics()
	return reg.CounterValue("legion_daemon_sweeps_total"), reg.CounterValue("legion_daemon_errors_total")
}

func TestSweepJoinsThenUpdates(t *testing.T) {
	_, c, h, d := setup(t)
	ctx := context.Background()

	if ok := d.Sweep(ctx); ok != 1 {
		t.Fatalf("first sweep deposits = %d", ok)
	}
	if c.Size() != 1 {
		t.Fatalf("collection size = %d", c.Size())
	}
	recs, _ := c.Query(`$host_os_name == "Linux"`)
	if len(recs) != 1 || recs[0].Member != h.LOID() {
		t.Fatalf("pulled record: %+v", recs)
	}

	// Host state changes; second sweep updates the existing record.
	h.SetExternalLoad(0.8)
	h.Reassess(ctx)
	if ok := d.Sweep(ctx); ok != 1 {
		t.Fatalf("second sweep deposits = %d", ok)
	}
	recs, _ = c.Query(`$host_load > 0.5`)
	if len(recs) != 1 {
		t.Fatalf("updated record not visible: %+v", recs)
	}
	sweeps, errs := stats(d)
	if sweeps != 2 || errs != 0 {
		t.Errorf("stats = %d sweeps %d errors", sweeps, errs)
	}
}

func TestSweepToleratesDeadResource(t *testing.T) {
	rt, c, h, d := setup(t)
	ghost := loid.LOID{Domain: "uva", Class: "Host", Instance: 999}
	d.Watch(ghost)
	if ok := d.Sweep(context.Background()); ok != 1 {
		t.Fatalf("sweep deposits = %d (live host should still land)", ok)
	}
	_, errs := stats(d)
	if errs != 1 {
		t.Errorf("errors = %d, want 1 (the ghost)", errs)
	}
	_ = rt
	_ = c
	_ = h
}

func TestSweepToleratesDeadCollection(t *testing.T) {
	rt, _, h, _ := setup(t)
	d2 := New(rt, Config{Interval: time.Second})
	d2.Watch(h.LOID())
	d2.PushInto(loid.LOID{Domain: "uva", Class: "Collection", Instance: 999})
	if ok := d2.Sweep(context.Background()); ok != 0 {
		t.Fatalf("sweep deposits = %d", ok)
	}
	_, errs := stats(d2)
	if errs != 1 {
		t.Errorf("errors = %d", errs)
	}
}

// TestPeriodicStartStop drives the periodic sweep on the virtual clock:
// one Advance past the interval deterministically completes exactly one
// sweep (the engine waits for quiescence), replacing the old
// poll-until-deposited loop that slept on the wall clock.
func TestPeriodicStartStop(t *testing.T) {
	vc := vclock.NewVirtual()
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(telemetry.NewRegistry())
	rt.SetClock(vc)
	v := vault.New(rt, vault.Config{Zone: "z1"})
	h := host.New(rt, host.Config{
		Arch: "x86", OS: "Linux", CPUs: 2, MemoryMB: 256, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()},
	})
	c := collection.New(rt, nil)
	d := New(rt, Config{Interval: 5 * time.Millisecond, Credential: "cred"})
	d.Watch(h.LOID())
	d.PushInto(c.LOID())

	d.Start()
	vc.Advance(5 * time.Millisecond)
	if c.Size() == 0 {
		t.Fatal("periodic sweep never deposited")
	}
	sweeps, _ := stats(d)
	if sweeps != 1 {
		t.Fatalf("sweeps = %d after one interval, want exactly 1", sweeps)
	}
	d.Stop()
	d.Stop() // idempotent
}

// TestDaemonStopFlushesInFlightSweep: Stop arrives while a sweep waits
// on a slow link. Stop returns only once the sweep in flight has pushed
// what it pulled, and the loop runs no further sweep. Stop waits on the
// clock, so it runs on a goroutine the clock runs. Stop used to cancel
// the loops from a bare goroutine, which let ticks fire after Stop.
func TestDaemonStopFlushesInFlightSweep(t *testing.T) {
	vc := vclock.NewVirtual()
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(telemetry.NewRegistry())
	rt.SetClock(vc)
	rt.SetLatency(20*time.Millisecond, 0)
	c := collection.New(rt, nil)
	d := New(rt, Config{Interval: 100 * time.Millisecond, Credential: "cred"})
	d.Watch(newFakeRes(rt, 0).LOID())
	d.PushInto(c.LOID())
	d.Start()

	vc.Advance(110 * time.Millisecond) // the first sweep's probe is in flight
	heldAtStop := -1
	vc.Go(func() {
		d.Stop()
		heldAtStop = c.Size()
	})
	vc.Advance(time.Second)
	if heldAtStop != 1 {
		t.Errorf("collection held %d records when Stop returned, want 1", heldAtStop)
	}
	if sweeps, _ := stats(d); sweeps != 1 {
		t.Errorf("sweeps = %d, want 1", sweeps)
	}
	if n := c.Size(); n != 1 {
		t.Errorf("collection holds %d records, want 1", n)
	}
}

func TestMultipleCollections(t *testing.T) {
	rt, c1, h, d := setup(t)
	c2 := collection.New(rt, nil)
	d.PushInto(c2.LOID())
	if ok := d.Sweep(context.Background()); ok != 2 {
		t.Fatalf("deposits = %d, want 2", ok)
	}
	if c1.Size() != 1 || c2.Size() != 1 {
		t.Errorf("sizes = %d, %d", c1.Size(), c2.Size())
	}
	recs, _ := c2.Query("defined($host_arch)")
	if len(recs) != 1 {
		t.Errorf("c2 record: %+v", recs)
	}
	m := attr.FromPairs(recs[0].Attrs)
	if m["host_loid"].Str() != h.LOID().String() {
		t.Errorf("host_loid attr = %v", m["host_loid"])
	}
}

func TestSweepPublishesLoadHistory(t *testing.T) {
	rt := orb.NewRuntime("uva")
	v := vault.New(rt, vault.Config{Zone: "z1"})
	h := host.New(rt, host.Config{
		Arch: "x86", OS: "Linux", CPUs: 2, MemoryMB: 256, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()},
	})
	c := collection.New(rt, nil)
	d := New(rt, Config{Interval: 5 * time.Millisecond, HistoryLen: 3})
	d.Watch(h.LOID())
	d.PushInto(c.LOID())
	ctx := context.Background()

	// Each sweep samples the host's current load into the rolling window.
	loads := []float64{0.2, 0.4, 0.6, 0.8}
	for _, l := range loads {
		h.SetExternalLoad(l)
		h.Reassess(ctx)
		if ok := d.Sweep(ctx); ok != 1 {
			t.Fatalf("sweep deposits = %d", ok)
		}
	}

	recs, err := c.Query(`defined($host_load_history)`)
	if err != nil || len(recs) != 1 {
		t.Fatalf("history record: %v %v", recs, err)
	}
	var histAttr attr.Value
	for _, p := range recs[0].Attrs {
		if p.Name == AttrLoadHistory {
			histAttr = p.Value
		}
	}
	hist, err := nws.HistoryFromAttr(histAttr)
	if err != nil {
		t.Fatal(err)
	}
	// Window length 3: the first sample rolled out, newest last.
	want := []float64{0.4, 0.6, 0.8}
	if len(hist) != len(want) {
		t.Fatalf("history = %v, want %v", hist, want)
	}
	for i := range want {
		if diff := hist[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("history = %v, want %v", hist, want)
		}
	}

	// The published series powers forecast_load() directly.
	nws.InjectForecast(c, nil)
	recs, err = c.Query(`forecast_load() > 0.3`)
	if err != nil || len(recs) != 1 {
		t.Errorf("forecast over published history: %v %v", recs, err)
	}
}

// TestNilBreakersCoolOnRuntimeClock: a Daemon built with nil Breakers
// on a virtual runtime gets a private breaker set on that runtime's
// clock, so an open breaker cools down as virtual time passes.
func TestNilBreakersCoolOnRuntimeClock(t *testing.T) {
	vc := vclock.NewVirtualAt(time.Date(1999, 4, 12, 0, 0, 0, 0, time.UTC))
	rt := orb.NewRuntime("uva")
	rt.SetClock(vc)
	d := New(rt, Config{})
	br := d.Breakers().ForLOID(loid.LOID{Domain: "uva", Class: "Host", Instance: 1})
	for range 5 { // the default failure threshold
		br.Record(orb.ErrInjectedFault)
	}
	vc.Advance(2 * time.Second) // the default cooldown
	if st := br.State(); st != resilient.HalfOpen {
		t.Fatalf("breaker after its cooldown in virtual time: %v, want half-open", st)
	}
}
