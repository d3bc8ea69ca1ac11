package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/vault"
)

// buildMetaMultiVault assembles a metasystem with nHosts hosts, each
// able to reach all nVaults vaults — the cross-vault migration fixture.
func buildMetaMultiVault(t *testing.T, nHosts, nVaults int) *Metasystem {
	t.Helper()
	ms := New("uva", Options{Seed: 7})
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

// TestMigrateStartObjectFailureLeaksNothing is the ISSUE 5 regression:
// when the destination's StartObject fails after the OPR was copied to
// the destination vault, the old code left the destination reservation
// token live and the copied OPR orphaned in toVault. Both must now be
// cleaned up, and the conservation audit must come back clean.
func TestMigrateStartObjectFailureLeaksNothing(t *testing.T) {
	ms := buildMetaMultiVault(t, 2, 2)
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
	var toVault loid.LOID
	for _, v := range ms.Vaults() {
		if v.LOID() != p.Vault {
			toVault = v.LOID()
		}
	}

	ms.Runtime().SetFaultInjector(func(target loid.LOID, method string) error {
		if target == dest.LOID() && method == proto.MethodStartObject {
			return errors.New("injected: destination start fails")
		}
		return nil
	})
	defer ms.Runtime().SetFaultInjector(nil)

	if err := ms.Migrate(ctx, c, inst, dest.LOID(), toVault); err == nil {
		t.Fatal("migration should fail")
	}

	// Object recovered in place with state intact.
	if got, err := ms.Runtime().Call(ctx, inst, "get", "k"); err != nil || got != "v" {
		t.Fatalf("object after failed migration: %v %v", got, err)
	}
	// The destination vault must not keep the copied OPR (orphan).
	for _, o := range ms.VaultByLOID(toVault).Objects() {
		if o == inst {
			t.Error("orphan OPR left in destination vault")
		}
	}
	// The destination reservation token must be cancelled (leak).
	if n := dest.ReservationLeaks(); n != 0 {
		t.Errorf("destination leaks %d reservation tokens", n)
	}
	if a := ms.AuditMigrations(c); !a.Clean() {
		t.Errorf("audit after failed migration: %v", a)
	}
}

// TestMigrateStoreOPRFailureLeaksNothing covers the second leaky branch:
// the destination vault refuses the OPR copy. The old code reactivated
// in place but never cancelled the destination host's reservation.
func TestMigrateStoreOPRFailureLeaksNothing(t *testing.T) {
	ms := buildMetaMultiVault(t, 2, 2)
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
	var toVault loid.LOID
	for _, v := range ms.Vaults() {
		if v.LOID() != p.Vault {
			toVault = v.LOID()
		}
	}

	ms.Runtime().SetFaultInjector(func(target loid.LOID, method string) error {
		if target == toVault && method == proto.MethodStoreOPR {
			return errors.New("injected: destination vault store fails")
		}
		return nil
	})
	defer ms.Runtime().SetFaultInjector(nil)

	if err := ms.Migrate(ctx, c, inst, dest.LOID(), toVault); err == nil {
		t.Fatal("migration should fail")
	}
	if got, err := ms.Runtime().Call(ctx, inst, "get", "k"); err != nil || got != "v" {
		t.Fatalf("object after failed migration: %v %v", got, err)
	}
	if n := dest.ReservationLeaks(); n != 0 {
		t.Errorf("destination leaks %d reservation tokens", n)
	}
	if a := ms.AuditMigrations(c); !a.Clean() {
		t.Errorf("audit after failed migration: %v", a)
	}
}

// TestReactivateInPlaceFailureLeaksNoToken: even when the recovery
// reactivation itself fails (fromHost's StartObject refuses after the
// first failure), the recovery reservation must be cancelled.
func TestReactivateInPlaceFailureLeaksNoToken(t *testing.T) {
	ms := buildMetaMultiVault(t, 2, 1)
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	insts, p, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]

	var dest *host.Host
	for _, h := range ms.Hosts() {
		if h.LOID() != p.Host {
			dest = h
		}
	}
	// Every StartObject anywhere fails: the migration's redeem on the
	// destination and the recovery's redeem on the source.
	ms.Runtime().SetFaultInjector(func(target loid.LOID, method string) error {
		if method == proto.MethodStartObject {
			return errors.New("injected: all starts fail")
		}
		return nil
	})

	if err := ms.Migrate(ctx, c, inst, dest.LOID(), p.Vault); err == nil {
		t.Fatal("migration should fail")
	}
	ms.Runtime().SetFaultInjector(nil)

	for _, h := range ms.Hosts() {
		if n := h.ReservationLeaks(); n != 0 {
			t.Errorf("host %v leaks %d reservation tokens", h.LOID(), n)
		}
	}
	// The object is down (recovery failed too) but its OPR survived in
	// the source vault; EnsureRunning brings it back.
	if err := ms.EnsureRunning(ctx, c, inst); err != nil {
		t.Fatalf("EnsureRunning: %v", err)
	}
	if a := ms.AuditMigrations(c); !a.Clean() {
		t.Errorf("audit after recovery: %v", a)
	}
}

// TestConcurrentMigrateSameInstance races two goroutines migrating the
// same instance to different destinations. The per-instance migration
// lock must serialize them: no double deactivation, and afterwards the
// instance runs exactly once with state intact. Run with -race.
func TestConcurrentMigrateSameInstance(t *testing.T) {
	ms := buildMetaMultiVault(t, 3, 2)
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	insts, _, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	if _, err := ms.Runtime().Call(ctx, inst, "set", []string{"k", "v"}); err != nil {
		t.Fatal(err)
	}

	hosts := ms.Hosts()
	vaults := ms.Vaults()
	const rounds = 25
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < rounds; i++ {
				h := hosts[rng.Intn(len(hosts))]
				v := vaults[rng.Intn(len(vaults))]
				// Errors are acceptable (e.g. "already there"); leaks and
				// duplicates are not — the audit below decides.
				_ = ms.Migrate(ctx, c, inst, h.LOID(), v.LOID())
			}
		}(g)
	}
	wg.Wait()

	running := 0
	for _, h := range hosts {
		if h.IsRunning(inst) {
			running++
		}
	}
	if running != 1 {
		t.Fatalf("instance running on %d hosts, want 1", running)
	}
	if got, err := ms.Runtime().Call(ctx, inst, "get", "k"); err != nil || got != "v" {
		t.Fatalf("state after migration storm: %v %v", got, err)
	}
	if a := ms.AuditMigrations(c); !a.Clean() {
		t.Errorf("audit after migration storm: %v", a)
	}
}

// TestMigrationConservesInstanceAndOPR is the property test: across a
// randomized sequence of migrations — a seeded fraction failing at a
// random protocol step — the system conserves exactly one live instance
// and, after healing plus one EnsureRunning pass, exactly one newest
// OPR, with zero leaked tokens.
func TestMigrationConservesInstanceAndOPR(t *testing.T) {
	const (
		seed      = 1999
		steps     = 40
		faultRate = 0.3
	)
	ms := buildMetaMultiVault(t, 3, 3)
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	insts, _, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	if _, err := ms.Runtime().Call(ctx, inst, "set", []string{"k", "v"}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	faultable := []string{proto.MethodStartObject, proto.MethodStoreOPR, proto.MethodDeleteOPR, proto.MethodDeactivateObject}
	var faultMu sync.Mutex
	faultMethod := ""
	ms.Runtime().SetFaultInjector(func(target loid.LOID, method string) error {
		faultMu.Lock()
		defer faultMu.Unlock()
		if method == faultMethod {
			return fmt.Errorf("injected: %s fails", method)
		}
		return nil
	})

	hosts := ms.Hosts()
	vaults := ms.Vaults()
	for i := 0; i < steps; i++ {
		faultMu.Lock()
		if rng.Float64() < faultRate {
			faultMethod = faultable[rng.Intn(len(faultable))]
		} else {
			faultMethod = ""
		}
		faultMu.Unlock()
		h := hosts[rng.Intn(len(hosts))]
		v := vaults[rng.Intn(len(vaults))]
		_ = ms.Migrate(ctx, c, inst, h.LOID(), v.LOID())

		// Invariant that must hold even mid-storm: never more than one
		// live copy of the instance.
		running := 0
		for _, h := range hosts {
			if h.IsRunning(inst) {
				running++
			}
		}
		if running > 1 {
			t.Fatalf("step %d: instance running on %d hosts", i, running)
		}
	}

	// Heal and converge.
	faultMu.Lock()
	faultMethod = ""
	faultMu.Unlock()
	ms.Runtime().SetFaultInjector(nil)
	if err := ms.EnsureRunning(ctx, c, inst); err != nil {
		t.Fatalf("EnsureRunning after storm: %v", err)
	}
	if a := ms.AuditMigrations(c); !a.Clean() {
		t.Fatalf("audit after storm: %v", a)
	}
	if got, err := ms.Runtime().Call(ctx, inst, "get", "k"); err != nil || got != "v" {
		t.Fatalf("state after storm: %v %v", got, err)
	}
}

// TestMigrateWrongReplyType: a destination that answers make_reservation
// with another registered type (a version-skewed or misbehaving peer)
// fails the migration like a refusal. Reading that reply with an
// unchecked type assertion used to panic the whole process.
func TestMigrateWrongReplyType(t *testing.T) {
	ms := buildMetaMultiVault(t, 1, 1)
	c := ms.DefineClass("Worker", nil)
	ctx := context.Background()
	insts, p, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rogue := orb.NewServiceObject(ms.Runtime().Mint("Host"))
	rogue.Handle(proto.MethodMakeReservation, func(context.Context, any) (any, error) {
		return proto.Ack{}, nil
	})
	ms.Runtime().Register(rogue)

	if err := ms.Migrate(ctx, c, insts[0], rogue.LOID(), p.Vault); err == nil {
		t.Fatal("migration toward a wrong-typed reply succeeded")
	}
	if !ms.HostByLOID(p.Host).IsRunning(insts[0]) {
		t.Error("instance no longer runs on its source host")
	}
	if a := ms.AuditMigrations(c); !a.Clean() {
		t.Errorf("audit after failed migration: %v", a)
	}
}
