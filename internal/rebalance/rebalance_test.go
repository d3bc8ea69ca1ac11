package rebalance

import (
	"context"
	"errors"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/classobj"
	"legion/internal/core"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/proto"
	"legion/internal/telemetry"
	"legion/internal/vault"
	"legion/internal/vclock"
)

// buildMeta assembles a metasystem with nHosts hosts sharing nVaults
// vaults, every host reaching every vault. Each gets a private telemetry
// registry so counter assertions don't see other tests' traffic.
func buildMeta(t *testing.T, nHosts, nVaults int) *core.Metasystem {
	t.Helper()
	return buildMetaOn(t, nil, nHosts, nVaults)
}

// buildMetaOn is buildMeta on clock (nil = the wall clock).
func buildMetaOn(t *testing.T, clock vclock.Clock, nHosts, nVaults int) *core.Metasystem {
	t.Helper()
	ms := core.New("uva", core.Options{Seed: 11, Metrics: telemetry.NewRegistry(), Clock: clock})
	vaults := make([]loid.LOID, 0, nVaults)
	for i := 0; i < nVaults; i++ {
		v := ms.AddVault(vault.Config{Zone: "z1"})
		vaults = append(vaults, v.LOID())
	}
	for i := 0; i < nHosts; i++ {
		ms.AddHost(host.Config{
			Arch: "x86", OS: "Linux", CPUs: 8, MemoryMB: 1024, Zone: "z1",
			Vaults: append([]loid.LOID(nil), vaults...),
		})
	}
	return ms
}

// TestRebalancerShedsOverloadedHost is the subsystem's end-to-end §3.5
// loop: overload trigger fires -> async event -> LeastLoaded plan ->
// core.Migrate — with the instance landing on the coolest host and the
// conservation audit staying clean.
func TestRebalancerShedsOverloadedHost(t *testing.T) {
	ms := buildMeta(t, 3, 1)
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	insts, p, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	src := p.Host

	r := New(ms, Config{Classes: []*classobj.Class{c}, Cooldown: -1})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err == nil {
		t.Fatal("double Start should fail")
	}

	if err := ms.WatchLoad(ctx, 0.8); err != nil {
		t.Fatal(err)
	}
	// Make the source hot and another host clearly coolest.
	for _, h := range ms.Hosts() {
		if h.LOID() == src {
			h.SetExternalLoad(0.95)
		} else {
			h.SetExternalLoad(0.3)
		}
	}
	ms.ReassessAll(ctx)

	deadline := time.After(3 * time.Second)
	for {
		hL, _, err := c.WhereIs(inst)
		if err != nil {
			t.Fatal(err)
		}
		if hL != src {
			break
		}
		select {
		case <-deadline:
			t.Fatal("rebalancer never migrated the instance")
		case <-time.After(5 * time.Millisecond):
		}
	}
	reg := ms.Runtime().Metrics()
	if n := reg.CounterValue("legion_rebalance_migrations_total", "result", "ok"); n < 1 {
		t.Errorf("migrations ok counter = %d", n)
	}
	if n := reg.CounterValue("legion_rebalance_events_total"); n < 1 {
		t.Errorf("events counter = %d", n)
	}
	if a := ms.AuditMigrations(c); !a.Clean() {
		t.Errorf("audit after rebalance: %v", a)
	}
}

// TestRebalancerReactsOnVirtualClock is the §3.5 loop above on a virtual
// runtime whose every call sleeps on a link: the Monitor's dispatcher
// runs the handler, and with it the plan's Collection query and the
// migration's calls, as a goroutine registered with the clock: from a
// bare goroutine, the first park would spend a busy credit it does not
// own.
func TestRebalancerReactsOnVirtualClock(t *testing.T) {
	vc := vclock.NewVirtual()
	ms := buildMetaOn(t, vc, 3, 1)
	ms.Runtime().SetLatency(2*time.Millisecond, time.Millisecond)
	c := ms.DefineClass("Worker", nil)
	r := New(ms, Config{Classes: []*classobj.Class{c}, Cooldown: -1})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	var inst, src loid.LOID
	vc.Run(func() {
		ctx := context.Background()
		insts, p, err := c.CreateInstance(ctx, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		inst, src = insts[0], p.Host
		if err := ms.WatchLoad(ctx, 0.8); err != nil {
			t.Fatal(err)
		}
		for _, h := range ms.Hosts() {
			if h.LOID() == src {
				h.SetExternalLoad(0.95)
			} else {
				h.SetExternalLoad(0.3)
			}
		}
		ms.ReassessAll(ctx)
		_ = vc.Sleep(ctx, time.Minute)
	})
	if hL, _, err := c.WhereIs(inst); err != nil || hL == src {
		t.Fatalf("instance still on the hot host %v (err %v)", hL, err)
	}
	if a := ms.AuditMigrations(c); !a.Clean() {
		t.Errorf("audit after rebalance: %v", a)
	}
}

// TestStopWaitsOnTheRuntimeClock stops a Rebalancer on a virtual clock
// while its forecast scan is mid-query, the query sleeping on a link.
// Stop waits the scan out, and the scan needs virtual time to pass: a
// wait the engine cannot see would hold time still and never return.
func TestStopWaitsOnTheRuntimeClock(t *testing.T) {
	vc := vclock.NewVirtual()
	ms := buildMetaOn(t, vc, 2, 1)
	ms.Runtime().SetLatency(2*time.Millisecond, 0)
	r := New(ms, Config{Policy: &Predictive{}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		vc.Run(func() {
			r.StartForecastScan(10*time.Millisecond, &Predictive{})
			_ = vc.Sleep(context.Background(), 11*time.Millisecond)
			r.Stop()
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop never returned: the scan it waits for is stuck on virtual time")
	}
}

// TestCooldownSuppressesRepeatShedding: after a successful shed, further
// events from the same host are ignored until the window passes.
func TestCooldownSuppressesRepeatShedding(t *testing.T) {
	// Virtual clock (epoch anchored near wall time so stdlib-derived
	// deadlines downstream stay sane); the test advances it directly
	// instead of sleeping through the cooldown window.
	vc := vclock.NewVirtual()
	ms := buildMetaOn(t, vc, 3, 1)
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	if _, _, err := c.CreateInstance(ctx, 3, nil, nil); err != nil {
		t.Fatal(err)
	}

	r := New(ms, Config{Classes: []*classobj.Class{c}, Cooldown: time.Minute})

	src := ms.Hosts()[0].LOID()
	ev := proto.NotifyArgs{Source: src, Trigger: "overload"}

	r.handle(ev) // first event: plans and migrates (or at least plans)
	reg := ms.Runtime().Metrics()
	migrated := reg.CounterValue("legion_rebalance_migrations_total", "result", "ok")
	if migrated < 1 {
		t.Fatalf("first event migrated %d", migrated)
	}
	r.handle(ev) // inside the window: suppressed
	if n := reg.CounterValue("legion_rebalance_skipped_total", "reason", "cooldown"); n != 1 {
		t.Errorf("cooldown skips = %d, want 1", n)
	}
	if n := reg.CounterValue("legion_rebalance_migrations_total", "result", "ok"); n != migrated {
		t.Errorf("migrated during cooldown: %d -> %d", migrated, n)
	}
	vc.Advance(2 * time.Minute)
	r.handle(ev) // window passed: acts again
	if n := reg.CounterValue("legion_rebalance_migrations_total", "result", "ok"); n <= migrated {
		t.Errorf("no migration after cooldown expiry: %d", n)
	}
}

// TestRateLimitBoundsChurn: an event that sheds more moves than the
// bucket's burst of maxConcurrent executes that many migrations and
// counts the rest as rate-limited.
func TestRateLimitBoundsChurn(t *testing.T) {
	// Virtual clock, never advanced: the bucket never refills.
	ms := buildMetaOn(t, vclock.NewVirtual(), 2, 1)
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	if _, _, err := c.CreateInstance(ctx, 16, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Shed from the fuller host: it holds at least 8 of the 16.
	on := map[loid.LOID]int{}
	for _, inst := range c.Instances() {
		if h, _, err := c.WhereIs(inst); err == nil {
			on[h]++
		}
	}
	src := ms.Hosts()[0].LOID()
	if other := ms.Hosts()[1].LOID(); on[other] > on[src] {
		src = other
	}
	const shed = 2 * maxConcurrent

	r := New(ms, Config{
		Classes:    []*classobj.Class{c},
		Cooldown:   -1,
		RatePerSec: 0.001,
		Policy:     &LeastLoaded{MaxShedPerEvent: shed},
	})
	r.handle(proto.NotifyArgs{Source: src, Trigger: "overload"})
	reg := ms.Runtime().Metrics()
	ok := reg.CounterValue("legion_rebalance_migrations_total", "result", "ok")
	limited := reg.CounterValue("legion_rebalance_skipped_total", "reason", "rate_limited")
	if ok != maxConcurrent || limited != shed-maxConcurrent {
		t.Errorf("%d of %d victims on the source: %d migrated and %d rate-limited, want %d and %d",
			shed, on[src], ok, limited, maxConcurrent, shed-maxConcurrent)
	}
}

// TestFailedMigrationRecovers: when the destination refuses StartObject,
// the rebalancer's EnsureRunning fallback restores the instance and the
// audit stays clean.
func TestFailedMigrationRecovers(t *testing.T) {
	ms := buildMeta(t, 2, 2)
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	insts, p, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	src := p.Host

	var dest loid.LOID
	for _, h := range ms.Hosts() {
		if h.LOID() != src {
			dest = h.LOID()
		}
	}
	ms.Runtime().SetFaultInjector(func(target loid.LOID, method string) error {
		if target == dest && method == proto.MethodStartObject {
			return errors.New("injected: destination refuses")
		}
		return nil
	})
	defer ms.Runtime().SetFaultInjector(nil)

	r := New(ms, Config{Classes: []*classobj.Class{c}, Cooldown: -1})
	r.handle(proto.NotifyArgs{Source: src, Trigger: "overload"})

	reg := ms.Runtime().Metrics()
	if n := reg.CounterValue("legion_rebalance_migrations_total", "result", "failed"); n != 1 {
		t.Errorf("failed counter = %d, want 1", n)
	}
	if h, _, err := c.WhereIs(inst); err != nil || h != src {
		t.Errorf("instance not back on source: %v %v", h, err)
	}
	if a := ms.AuditMigrations(c); !a.Clean() {
		t.Errorf("audit after failed rebalance: %v", a)
	}
}

// TestReconcileRevivesDownedInstance: the anti-entropy sweep brings back
// an instance whose host lost it (killed out-of-band) from its OPR.
func TestReconcileRevivesDownedInstance(t *testing.T) {
	ms := buildMeta(t, 2, 1)
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	insts, p, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	if _, err := ms.Runtime().Call(ctx, inst, "set", []string{"k", "v"}); err != nil {
		t.Fatal(err)
	}
	// Deactivate behind the class's back: the OPR lands in the vault and
	// the class record now points at a host not running the instance.
	if _, err := ms.Runtime().Call(ctx, p.Host, proto.MethodDeactivateObject, proto.ObjectArgs{Object: inst}); err != nil {
		t.Fatal(err)
	}

	r := New(ms, Config{Classes: []*classobj.Class{c}})
	if err := r.Reconcile(ctx); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if got, err := ms.Runtime().Call(ctx, inst, "get", "k"); err != nil || got != "v" {
		t.Fatalf("instance after reconcile: %v %v", got, err)
	}
	if a := ms.AuditMigrations(c); !a.Clean() {
		t.Errorf("audit after reconcile: %v", a)
	}
}

// TestPolicyPrefersCurrentVaultAndZone pins the destination ranking:
// current-vault hosts beat same-zone hosts beat the rest, load breaking
// ties.
func TestPolicyPrefersCurrentVaultAndZone(t *testing.T) {
	ms := core.New("uva", core.Options{Seed: 3, Metrics: telemetry.NewRegistry()})
	vA := ms.AddVault(vault.Config{Zone: "zoneA"})
	vB := ms.AddVault(vault.Config{Zone: "zoneB"})
	// src: in zoneA with vault A.
	src := ms.AddHost(host.Config{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512,
		Zone: "zoneA", Vaults: []loid.LOID{vA.LOID()}})
	// hSame: reaches the current vault (tier 0) despite higher load.
	hSame := ms.AddHost(host.Config{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512,
		Zone: "zoneA", Vaults: []loid.LOID{vA.LOID()}})
	// hOther: different vault, different zone (tier 2), lowest load.
	hOther := ms.AddHost(host.Config{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512,
		Zone: "zoneB", Vaults: []loid.LOID{vB.LOID()}})
	hSame.SetExternalLoad(0.5)
	hOther.SetExternalLoad(0.1)

	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	insts, _, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the victim to src/vA regardless of where quick placement put it.
	if err := ms.Migrate(ctx, c, insts[0], src.LOID(), vA.LOID()); err != nil {
		t.Fatal(err)
	}

	p := NewLeastLoaded()
	moves, err := p.Plan(ctx, proto.NotifyArgs{Source: src.LOID(), Trigger: "overload"}, ms, []*classobj.Class{c})
	if err != nil || len(moves) != 1 {
		t.Fatalf("plan: %v %v", moves, err)
	}
	if moves[0].ToHost != hSame.LOID() || moves[0].ToVault != vA.LOID() {
		t.Errorf("move = %+v, want current-vault host %v", moves[0], hSame.LOID())
	}
	_ = insts
}

// TestNoMoveOntoAHostFlaggedDown: two hosts, and the Collection flags
// the one that is not the source down. No policy plans a move onto it:
// the fallback to live host state is for a Collection that returns no
// record, not for one whose records are all down.
func TestNoMoveOntoAHostFlaggedDown(t *testing.T) {
	ctx := context.Background()
	ms := buildMeta(t, 2, 1)
	defer ms.Close()
	c := ms.DefineClass("Worker", nil)
	_, p, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms.ReassessAll(ctx)
	for _, h := range ms.Hosts() {
		if h.LOID() == p.Host {
			continue
		}
		if err := ms.Collection.Update(h.LOID(), []attr.Pair{{Name: "host_alive", Value: attr.Bool(false)}}, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, policy := range []Policy{NewLeastLoaded(), &Predictive{}} {
		moves, err := policy.Plan(ctx, proto.NotifyArgs{Source: p.Host, Trigger: "overload"}, ms, []*classobj.Class{c})
		if err != nil || len(moves) != 0 {
			t.Errorf("%T planned %v (err %v) with the only other host flagged down, want no move", policy, moves, err)
		}
	}
}

// TestStopWaitsForTheReactiveEpisode: Stop, called while a reactive
// migration waits on a virtual link, returns only once the episode has
// ended. It used to wait on the Monitor's dispatcher behind a bare
// channel, which held virtual time still, so the link never delivered
// and Stop never returned.
func TestStopWaitsForTheReactiveEpisode(t *testing.T) {
	vc := vclock.NewVirtual()
	ms := buildMetaOn(t, vc, 3, 1)
	ms.Runtime().SetLatency(2*time.Millisecond, time.Millisecond)
	c := ms.DefineClass("Worker", nil)
	planned := vc.NewGate()
	r := New(ms, Config{Classes: []*classobj.Class{c}, Cooldown: -1, Policy: signalling{NewLeastLoaded(), planned}})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	reg := ms.Runtime().Metrics()
	episodes := func() int64 {
		return reg.CounterValue("legion_rebalance_migrations_total", "result", "ok") +
			reg.CounterValue("legion_rebalance_migrations_total", "result", "failed")
	}
	var atStop, afterStop int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		vc.Run(func() {
			ctx := context.Background()
			_, p, err := c.CreateInstance(ctx, 1, nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if err := ms.WatchLoad(ctx, 0.8); err != nil {
				t.Error(err)
				return
			}
			for _, h := range ms.Hosts() {
				if h.LOID() == p.Host {
					h.SetExternalLoad(0.95)
				} else {
					h.SetExternalLoad(0.3)
				}
			}
			ms.ReassessAll(ctx)
			_ = planned.Wait(ctx) // the migration's calls are on the link now
			atStop = episodes()
			r.Stop()
			afterStop = episodes()
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop never returned: the migration it waits for is stuck on virtual time")
	}
	if atStop != 0 || afterStop != 1 {
		t.Errorf("migrations ended: %d when Stop was called, %d when it returned; want 0 and 1", atStop, afterStop)
	}
}

// signalling is a Policy that signals planned each time it has planned.
type signalling struct {
	Policy
	planned vclock.Gate
}

func (p signalling) Plan(ctx context.Context, ev proto.NotifyArgs, ms *core.Metasystem, classes []*classobj.Class) ([]Move, error) {
	moves, err := p.Policy.Plan(ctx, ev, ms, classes)
	p.planned.Signal()
	return moves, err
}
