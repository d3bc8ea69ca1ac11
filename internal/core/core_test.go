package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/collection"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/vault"
)

// buildMeta assembles a metasystem with nHosts Linux/x86 hosts sharing
// one vault.
func buildMeta(t *testing.T, nHosts int) *Metasystem {
	t.Helper()
	ms := New("uva", Options{Seed: 42})
	v := ms.AddVault(vault.Config{Zone: "z1"})
	for i := 0; i < nHosts; i++ {
		ms.AddHost(host.Config{
			Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 1024, Zone: "z1",
			Vaults: []loid.LOID{v.LOID()},
		})
	}
	return ms
}

func workerReq(c loid.LOID, n int) scheduler.Request {
	return scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: c, Count: n}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
}

// TestDomainWideBreakersShared pins the wiring the Metasystem promises:
// the Enactor and the Data Collection Daemon use the same per-endpoint
// breaker pool as the scheduler path, so a Host that fails in one layer
// fails fast in the others.
func TestDomainWideBreakersShared(t *testing.T) {
	ms := buildMeta(t, 1)
	if ms.Enactor.Breakers() != ms.Breakers() {
		t.Error("Enactor uses a private breaker set, not the domain-wide pool")
	}
	if d := ms.NewDaemon(); d.Breakers() != ms.Breakers() {
		t.Error("Daemon uses a private breaker set, not the domain-wide pool")
	}
	if ms.Env().Breakers != ms.Breakers() {
		t.Error("scheduler Env uses a private breaker set, not the domain-wide pool")
	}
}

func TestFigure1Hierarchy(t *testing.T) {
	ms := buildMeta(t, 2)
	// LegionClass is the root; HostClass and VaultClass are managed by it.
	if ms.HostClass.Meta() != ms.LegionClass.LOID() || ms.VaultClass.Meta() != ms.LegionClass.LOID() {
		t.Error("HostClass/VaultClass not managed by LegionClass")
	}
	// Host and Vault objects appear as instances of their guardian classes.
	if got := ms.HostClass.Instances(); len(got) != 2 {
		t.Errorf("HostClass instances: %v", got)
	}
	if got := ms.VaultClass.Instances(); len(got) != 1 {
		t.Errorf("VaultClass instances: %v", got)
	}
	// User classes hang off LegionClass too.
	c := ms.DefineClass("Worker", nil)
	if c.Meta() != ms.LegionClass.LOID() {
		t.Error("user class not managed by LegionClass")
	}
	if got, ok := ms.Class("Worker"); !ok || got != c {
		t.Error("Class lookup failed")
	}
}

func TestQuickPlacementViaCreateInstance(t *testing.T) {
	ms := buildMeta(t, 3)
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	// The undirected create_instance path: the class makes its own quick
	// placement (paper §2.1).
	res, err := ms.Runtime().Call(ctx, c.LOID(), proto.MethodCreateInstance,
		proto.CreateInstanceArgs{Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	reply := res.(proto.CreateInstanceReply)
	if len(reply.Instances) != 2 || reply.Host.IsNil() {
		t.Fatalf("reply: %+v", reply)
	}
	for _, inst := range reply.Instances {
		if r, err := ms.Runtime().Call(ctx, inst, "ping", nil); err != nil || r != "pong" {
			t.Errorf("instance %v: %v %v", inst, r, err)
		}
	}
}

func TestQuickPlacementSkipsRefusingHosts(t *testing.T) {
	ms := New("uva", Options{})
	v := ms.AddVault(vault.Config{Zone: "z1"})
	// First host (lowest LOID, first in Collection order) refuses all.
	ms.AddHost(host.Config{
		Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()},
		Policy: func(proto.MakeReservationArgs) error {
			return fmt.Errorf("%w: full up", host.ErrPolicy)
		},
	})
	good := ms.AddHost(host.Config{
		Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()},
	})
	c := ms.DefineClass("Worker", nil)
	insts, p, err := c.CreateInstance(context.Background(), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Host != good.LOID() {
		t.Errorf("placed on %v, want the non-refusing host", p.Host)
	}
	_ = insts
}

func TestPlaceApplicationAcrossSchedulers(t *testing.T) {
	gens := []scheduler.Generator{
		scheduler.Random{},
		scheduler.IRS{NSched: 3},
		&scheduler.RoundRobin{},
		scheduler.LoadAware{},
	}
	for _, gen := range gens {
		t.Run(gen.Name(), func(t *testing.T) {
			ms := buildMeta(t, 3)
			c := ms.DefineClass("Worker", []proto.Implementation{{Arch: "x86", OS: "Linux"}})
			out, err := ms.PlaceApplication(context.Background(), gen, workerReq(c.LOID(), 6))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Success || len(out.Instances) != 6 {
				t.Fatalf("outcome: %+v", out)
			}
			total := 0
			for _, h := range ms.Hosts() {
				total += h.RunningCount()
			}
			if total != 6 {
				t.Errorf("running objects: %d", total)
			}
			if len(c.Instances()) != 6 {
				t.Errorf("class instances: %d", len(c.Instances()))
			}
		})
	}
}

func TestMigratePreservesState(t *testing.T) {
	ms := New("uva", Options{Seed: 1})
	v1 := ms.AddVault(vault.Config{Zone: "z1"})
	v2 := ms.AddVault(vault.Config{Zone: "z1"})
	h1 := ms.AddHost(host.Config{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1",
		Vaults: []loid.LOID{v1.LOID(), v2.LOID()}})
	h2 := ms.AddHost(host.Config{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1",
		Vaults: []loid.LOID{v1.LOID(), v2.LOID()}})
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()

	// Start an instance on h1/v1 and give it distinctive state.
	insts, p, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	if p.Host != h1.LOID() {
		t.Fatalf("expected first host, got %v", p.Host)
	}
	if _, err := ms.Runtime().Call(ctx, inst, "set", []string{"phase", "7"}); err != nil {
		t.Fatal(err)
	}

	// Migrate to h2 with a vault move to v2.
	if err := ms.Migrate(ctx, c, inst, h2.LOID(), v2.LOID()); err != nil {
		t.Fatal(err)
	}
	// The object answers at the same LOID with its state intact.
	got, err := ms.Runtime().Call(ctx, inst, "get", "phase")
	if err != nil || got != "7" {
		t.Fatalf("state after migration: %v %v", got, err)
	}
	if h1.RunningCount() != 0 || h2.RunningCount() != 1 {
		t.Errorf("running: h1=%d h2=%d", h1.RunningCount(), h2.RunningCount())
	}
	// Class records moved.
	hL, vL, err := c.WhereIs(inst)
	if err != nil || hL != h2.LOID() || vL != v2.LOID() {
		t.Errorf("WhereIs: %v %v %v", hL, vL, err)
	}
	// OPR moved out of the old vault.
	if _, err := v1.Retrieve(inst); !errors.Is(err, vault.ErrNotFound) {
		t.Errorf("old vault still holds OPR: %v", err)
	}
	// Migrating to the same place is a no-op.
	if err := ms.Migrate(ctx, c, inst, h2.LOID(), v2.LOID()); err != nil {
		t.Errorf("no-op migrate: %v", err)
	}
}

// TestStateRoundTripsThroughMigrateAndEnsureRunning: the whole saved
// state — every payload key, the ping count — survives both recovery
// paths, and each reactivation counts one generation.
func TestStateRoundTripsThroughMigrateAndEnsureRunning(t *testing.T) {
	ms := buildMeta(t, 2)
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	insts, p, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	for i := 0; i < 8; i++ {
		kv := []string{fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i)}
		if _, err := ms.Runtime().Call(ctx, inst, "set", kv); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := ms.Runtime().Call(ctx, inst, "ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string, generation int) {
		t.Helper()
		obj, ok := ms.Runtime().Lookup(inst)
		if !ok {
			t.Fatalf("%s: %v not bound", stage, inst)
		}
		g := obj.(*host.GenericObject)
		if g.Pings() != 3 || g.Generation() != generation {
			t.Errorf("%s: pings=%d generation=%d, want 3 and %d", stage, g.Pings(), g.Generation(), generation)
		}
		for i := 0; i < 8; i++ {
			got, err := ms.Runtime().Call(ctx, inst, "get", fmt.Sprintf("key-%d", i))
			if err != nil || got != fmt.Sprintf("value-%d", i) {
				t.Errorf("%s: key-%d = %v, %v", stage, i, got, err)
			}
		}
	}

	dest := ms.Hosts()[0]
	if dest.LOID() == p.Host {
		dest = ms.Hosts()[1]
	}
	if err := ms.Migrate(ctx, c, inst, dest.LOID(), p.Vault); err != nil {
		t.Fatal(err)
	}
	check("after Migrate", 1)

	// A migration that died after deactivation: the object is passive in
	// its vault and the class still records it on dest.
	if _, _, err := dest.DeactivateObject(ctx, inst); err != nil {
		t.Fatal(err)
	}
	if err := ms.EnsureRunning(ctx, c, inst); err != nil {
		t.Fatal(err)
	}
	check("after EnsureRunning", 2)
}

func TestMigrateRefusedDestinationLeavesObjectRunning(t *testing.T) {
	ms := New("uva", Options{})
	v := ms.AddVault(vault.Config{Zone: "z1"})
	ms.AddHost(host.Config{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()}})
	bad := ms.AddHost(host.Config{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()},
		Policy: func(proto.MakeReservationArgs) error {
			return fmt.Errorf("%w: never", host.ErrPolicy)
		}})
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	insts, _, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Migrate(ctx, c, insts[0], bad.LOID(), v.LOID()); err == nil {
		t.Fatal("migration to refusing host succeeded")
	}
	// Object still alive where it was.
	if r, err := ms.Runtime().Call(ctx, insts[0], "ping", nil); err != nil || r != "pong" {
		t.Errorf("object dead after failed migration: %v %v", r, err)
	}
}

func TestMigrateUnknownInstance(t *testing.T) {
	ms := buildMeta(t, 2)
	c := ms.DefineClass("Worker", nil)
	ghost := loid.LOID{Domain: "uva", Class: "Worker", Instance: 999}
	if err := ms.Migrate(context.Background(), c, ghost, ms.Hosts()[0].LOID(), ms.Vaults()[0].LOID()); err == nil {
		t.Error("migrating unknown instance succeeded")
	}
}

// TestOverloadTriggersMigration is the full §3.5 loop: a loaded host's
// trigger fires, the Monitor's handler reschedules the instance onto the
// least-loaded host.
func TestOverloadTriggersMigration(t *testing.T) {
	ms := buildMeta(t, 2)
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	h1, h2 := ms.Hosts()[0], ms.Hosts()[1]

	insts, p, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	if p.Host != h1.LOID() {
		t.Fatalf("instance on %v", p.Host)
	}

	if err := ms.WatchLoad(ctx, 0.8); err != nil {
		t.Fatal(err)
	}
	migrated := make(chan error, 1)
	ms.Monitor.OnEvent(func(ev proto.NotifyArgs) {
		if ev.Trigger != "overload" || ev.Source != h1.LOID() {
			return
		}
		dest, dv, err := ms.LeastLoadedHost(ev.Source)
		if err != nil {
			migrated <- err
			return
		}
		migrated <- ms.Migrate(ctx, c, inst, dest.LOID(), dv)
	})

	// Drive h1 over the threshold and reassess (the periodic tick).
	h1.SetExternalLoad(0.95)
	ms.ReassessAll(ctx)

	select {
	case err := <-migrated:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no migration")
	}
	if h2.RunningCount() != 1 || h1.RunningCount() != 0 {
		t.Errorf("running: h1=%d h2=%d", h1.RunningCount(), h2.RunningCount())
	}
	if r, err := ms.Runtime().Call(ctx, inst, "ping", nil); err != nil || r != "pong" {
		t.Errorf("instance after migration: %v %v", r, err)
	}
}

func TestPushUpdatesReachCollection(t *testing.T) {
	ms := buildMeta(t, 1)
	ctx := context.Background()
	h := ms.Hosts()[0]
	h.SetExternalLoad(0.6)
	ms.ReassessAll(ctx)
	recs, err := ms.Collection.Query("$host_load > 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Member != h.LOID() {
		t.Errorf("pushed state not visible: %+v", recs)
	}
	m := attr.FromPairs(recs[0].Attrs)
	if m["host_load"].FloatVal() != 0.6 {
		t.Errorf("load attr: %v", m["host_load"])
	}
}

func TestLeastLoadedHost(t *testing.T) {
	ms := buildMeta(t, 3)
	hs := ms.Hosts()
	hs[0].SetExternalLoad(0.9)
	hs[1].SetExternalLoad(0.2)
	hs[2].SetExternalLoad(0.5)
	best, v, err := ms.LeastLoadedHost(loid.Nil)
	if err != nil || best != hs[1] || v.IsNil() {
		t.Errorf("LeastLoadedHost: %v %v %v", best, v, err)
	}
	// Excluding the best yields the next.
	best2, _, err := ms.LeastLoadedHost(hs[1].LOID())
	if err != nil || best2 != hs[2] {
		t.Errorf("excluded: %v %v", best2, err)
	}
	// Single-host system with that host excluded: error.
	ms1 := buildMeta(t, 1)
	if _, _, err := ms1.LeastLoadedHost(ms1.Hosts()[0].LOID()); err == nil {
		t.Error("want error with no alternative")
	}
}

func TestCollectionAuthEnforced(t *testing.T) {
	ms := New("uva", Options{
		Credential: "right",
		CollectionAuth: func(op collection.Op, member loid.LOID, cred string) error {
			if cred != "right" {
				return fmt.Errorf("bad credential %q", cred)
			}
			return nil
		},
	})
	v := ms.AddVault(vault.Config{Zone: "z1"})
	h := ms.AddHost(host.Config{Arch: "x86", OS: "Linux", CPUs: 2, MemoryMB: 256, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()}})
	// The metasystem's own credential works: the host record landed.
	if ms.Collection.Size() != 1 {
		t.Fatalf("collection size = %d", ms.Collection.Size())
	}
	// Foreign updates with a bad credential are refused.
	err := ms.Collection.Update(h.LOID(),
		[]attr.Pair{{Name: "host_load", Value: attr.Float(0)}}, "wrong")
	if !errors.Is(err, collection.ErrUnauthorized) {
		t.Errorf("unauthorized update: %v", err)
	}
}

func TestDomainAndClose(t *testing.T) {
	ms := buildMeta(t, 1)
	if ms.Domain() != "uva" {
		t.Errorf("Domain = %q", ms.Domain())
	}
	if err := ms.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestMigrateRecoveryReactivatesInPlace(t *testing.T) {
	// The destination grants the reservation but its startObject fails
	// (injected fault) after the object has been deactivated. Migrate
	// must reactivate the object where it was and report the error.
	ms := buildMeta(t, 2)
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
	var dest *host.Host
	for _, h := range ms.Hosts() {
		if h.LOID() != p.Host {
			dest = h
		}
	}
	ms.Runtime().SetFaultInjector(func(target loid.LOID, method string) error {
		if target == dest.LOID() && method == proto.MethodStartObject {
			return errors.New("injected: destination start fails")
		}
		return nil
	})
	defer ms.Runtime().SetFaultInjector(nil)

	err = ms.Migrate(ctx, c, inst, dest.LOID(), ms.Vaults()[0].LOID())
	if err == nil {
		t.Fatal("migration should fail")
	}
	// Recovery: object answers at the same LOID with intact state.
	got, gerr := ms.Runtime().Call(ctx, inst, "get", "k")
	if gerr != nil || got != "v" {
		t.Fatalf("object after failed migration: %v %v", got, gerr)
	}
	if dest.RunningCount() != 0 {
		t.Error("destination has an object despite failure")
	}
}

func TestServeDirectoryAndTCPListen(t *testing.T) {
	ms := buildMeta(t, 2)
	ms.DefineClass("Worker", nil)
	addr, err := ms.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	client := orb.NewRuntime("client")
	defer client.Close()
	client.BindDomain("uva", addr)
	res, err := client.Call(context.Background(), proto.DirectoryLOID("uva"),
		proto.MethodLookupServices, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := res.(proto.ServicesReply)
	if len(dir.Hosts) != 2 || len(dir.Vaults) != 1 || dir.Collection.IsNil() {
		t.Errorf("directory: %+v", dir)
	}
	if _, ok := dir.Classes["Worker"]; !ok {
		t.Errorf("classes: %v", dir.Classes)
	}
}
