package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"legion/internal/classobj"
	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/proto"
	"legion/internal/rebalance"
	"legion/internal/sim"
	"legion/internal/telemetry"
)

// migrationWorld builds a single-site world with hosts that can all
// reach several vaults, so migrations exercise the cross-vault OPR move.
func migrationWorld(t *testing.T, seed int64, hosts, vaults int) (*World, *Site, *classobj.Class) {
	t.Helper()
	w, err := NewWorld(seed, sim.Spec{Domain: "uva", Options: core.Options{Seed: seed, Metrics: telemetry.NewRegistry()},
		Hosts: sim.UniformSpecs(hosts, 4), Vaults: vaults})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	s := w.Sites[0]
	c, ok := s.MS.Class("Worker")
	if !ok {
		t.Fatal("no Worker class")
	}
	return w, s, c
}

// seedInstances creates n workers, stamps each with recognizable state,
// and runs one clean migration per instance so every one has a durable
// OPR in some vault before the faults start.
func seedInstances(t *testing.T, s *Site, c *classobj.Class, n int) []loid.LOID {
	t.Helper()
	ctx := context.Background()
	insts, _, err := c.CreateInstance(ctx, n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	hosts := s.MS.Hosts()
	vaults := s.MS.Vaults()
	for i, inst := range insts {
		if _, err := s.MS.Runtime().Call(ctx, inst, "set", []string{"k", fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
		h := hosts[(i+1)%len(hosts)]
		v := vaults[(i+1)%len(vaults)]
		if err := s.MS.Migrate(ctx, c, inst, h.LOID(), v.LOID()); err != nil {
			t.Fatalf("warm-up migration: %v", err)
		}
	}
	return insts
}

// TestMigrationChaosConservation is the migration acceptance scenario: a
// migration storm where the destination host or destination vault dies
// mid-protocol (injected faults on StartObject / StoreOPR / DeleteOPR /
// DeactivateObject at a rate >= 20%, plus whole host/vault crash
// episodes). After healing and one reconcile pass, every object must be
// running exactly once with its state intact, with zero leaked
// reservation tokens and zero orphaned OPRs.
func TestMigrationChaosConservation(t *testing.T) {
	const seed = 5
	w, s, c := migrationWorld(t, seed, 3, 2)
	insts := seedInstances(t, s, c, 6)
	ctx := context.Background()
	ms := s.MS
	rt := ms.Runtime()

	// Destination host dies mid-migration: its StartObject fails after
	// the OPR was copied. Destination vault dies mid-migration: StoreOPR
	// or the cleanup DeleteOPR fails. The source can fail too, at
	// DeactivateObject. All at 25% — above the 20% floor.
	const rate = 0.25
	for _, h := range ms.Hosts() {
		w.FlakyMethod(rt, h.LOID(), proto.MethodStartObject, rate)
		w.FlakyMethod(rt, h.LOID(), proto.MethodDeactivateObject, rate)
	}
	for _, v := range ms.Vaults() {
		w.FlakyMethod(rt, v.LOID(), proto.MethodStoreOPR, rate)
		w.FlakyMethod(rt, v.LOID(), proto.MethodDeleteOPR, rate)
	}

	rng := rand.New(rand.NewSource(seed))
	hosts := ms.Hosts()
	vaults := ms.Vaults()
	var revive func()
	for step := 0; step < 80; step++ {
		// Crash episodes: every 20 steps a random host or vault vanishes
		// entirely for the next 10 steps.
		if step%20 == 10 {
			if rng.Intn(2) == 0 {
				revive = w.CrashHost(s, rng.Intn(len(hosts)))
			} else {
				revive = w.CrashVault(s, rng.Intn(len(vaults)))
			}
		}
		if step%20 == 0 && revive != nil {
			revive()
			revive = nil
		}
		inst := insts[rng.Intn(len(insts))]
		h := hosts[rng.Intn(len(hosts))]
		v := vaults[rng.Intn(len(vaults))]
		// Failures are expected constantly; conservation is audited below.
		_ = ms.Migrate(ctx, c, inst, h.LOID(), v.LOID())
	}
	if revive != nil {
		revive()
	}
	w.HealAll()

	// Converge: the anti-entropy pass every Rebalancer runs periodically.
	for _, inst := range insts {
		if err := ms.EnsureRunning(ctx, c, inst); err != nil {
			t.Fatalf("seed %d: EnsureRunning(%v): %v", seed, inst, err)
		}
	}

	if got := w.TotalRunning(s); got != len(insts) {
		t.Errorf("seed %d: running %d objects, want %d", seed, got, len(insts))
	}
	if a := ms.AuditMigrations(c); !a.Clean() {
		t.Errorf("seed %d: conservation audit failed: %v", seed, a)
	}
	for i, inst := range insts {
		got, err := rt.Call(ctx, inst, "get", "k")
		if err != nil || got != fmt.Sprintf("v%d", i) {
			t.Errorf("seed %d: instance %v state: %v %v", seed, inst, got, err)
		}
	}
}

// TestRebalanceChaosExactlyOnce runs the full subsystem under fire: the
// Rebalancer reacts to overload triggers while a quarter of StartObject
// and StoreOPR calls fail. Afterwards a Reconcile pass must leave every
// instance running exactly once with a clean audit.
func TestRebalanceChaosExactlyOnce(t *testing.T) {
	const seed = 9
	w, s, c := migrationWorld(t, seed, 3, 2)
	insts := seedInstances(t, s, c, 6)
	ctx := context.Background()
	ms := s.MS
	rt := ms.Runtime()

	const rate = 0.25
	for _, h := range ms.Hosts() {
		w.FlakyMethod(rt, h.LOID(), proto.MethodStartObject, rate)
	}
	for _, v := range ms.Vaults() {
		w.FlakyMethod(rt, v.LOID(), proto.MethodStoreOPR, rate)
	}

	r := rebalance.New(ms, rebalance.Config{
		Classes:  []*classobj.Class{c},
		Cooldown: -1, // chaos test wants maximum churn
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := ms.WatchLoad(ctx, 0.8); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	hosts := ms.Hosts()
	for step := 0; step < 30; step++ {
		// Heat a random host over the trigger threshold, cool the rest,
		// and tick the reassessment loop; the Rebalancer does the rest.
		hot := rng.Intn(len(hosts))
		for i, h := range hosts {
			if i == hot {
				h.SetExternalLoad(0.95)
			} else {
				h.SetExternalLoad(0.2)
			}
		}
		ms.ReassessAll(ctx)
		time.Sleep(5 * time.Millisecond) // let async handlers run
	}
	r.Stop()
	w.HealAll()

	if err := r.Reconcile(ctx); err != nil {
		t.Fatalf("seed %d: Reconcile: %v", seed, err)
	}
	if got := w.TotalRunning(s); got != len(insts) {
		t.Errorf("seed %d: running %d objects, want %d", seed, got, len(insts))
	}
	if a := ms.AuditMigrations(c); !a.Clean() {
		t.Errorf("seed %d: conservation audit failed: %v", seed, a)
	}
	for i, inst := range insts {
		got, err := rt.Call(ctx, inst, "get", "k")
		if err != nil || got != fmt.Sprintf("v%d", i) {
			t.Errorf("seed %d: instance %v state: %v %v", seed, inst, got, err)
		}
	}
}
