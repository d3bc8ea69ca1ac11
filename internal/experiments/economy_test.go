package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"legion/internal/classobj"
	"legion/internal/core"
	"legion/internal/economy"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/rebalance"
	"legion/internal/resilient"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// TestE14EconomyShape is the reduced acceptance run for the E14 claim:
// the DeadlineBudget policy meets at least 90% of the deadlines it
// places against, at strictly lower gross spend than either cost-blind
// baseline, with every tenant's ledger conserved and no reservation
// leaks.
func TestE14EconomyShape(t *testing.T) {
	const hosts, requests = 400, 1_200

	runs := map[string]economyRun{}
	for _, row := range economyLadder() {
		runs[row.Name] = runEconomyCampaign(row.Gen, hosts, requests, economySpec, false)
	}

	for name, r := range runs {
		if r.res.Succeeded == 0 {
			t.Fatalf("%s placed nothing: %+v", name, r.res)
		}
		if len(r.audit) > 0 {
			t.Errorf("%s ledger conservation violated: %v", name, r.audit)
		}
		if r.leaks != 0 {
			t.Errorf("%s leaked %d reservations/instances", name, r.leaks)
		}
		if r.spent <= 0 {
			t.Errorf("%s spent nothing on a priced fleet", name)
		}
	}

	db := runs["deadline-budget"]
	if db.judged == 0 {
		t.Fatal("deadline-budget judged no placements")
	}
	if hit := float64(db.hit) / float64(db.judged); hit < 0.9 {
		t.Errorf("deadline-budget hit rate %.3f < 0.90 (%d/%d)", hit, db.hit, db.judged)
	}
	for _, blind := range []string{"random", "irs"} {
		if db.spent >= runs[blind].spent {
			t.Errorf("deadline-budget gross spend %.1f not strictly below %s %.1f",
				db.spent.Units(), blind, runs[blind].spent.Units())
		}
	}
}

// TestE14EconomyDifferential pins the degenerate-economy equivalence:
// with no deadline and no budget on any request, DeadlineBudget must be
// decision-for-decision identical to the cost-blind Random baseline —
// same placements, same sheds, and a byte-identical discrete-event
// trace. Same harness as TestE13CodecDifferential: if the economy rung
// consumes even one extra random draw or reorders one event, the trace
// hash diverges.
func TestE14EconomyDifferential(t *testing.T) {
	const hosts, requests = 300, 1_000

	type fingerprint struct {
		ok, shed, failed, leaks int
		events                  int
		traceHash               string
	}
	run := func(gen scheduler.Generator) fingerprint {
		r := runEconomyCampaign(gen, hosts, requests, nil, true)
		sum := sha256.Sum256([]byte(strings.Join(r.trace, "\n")))
		return fingerprint{
			ok: r.res.Succeeded, shed: r.res.Shed, failed: r.res.Failed,
			leaks: r.leaks, events: len(r.trace),
			traceHash: hex.EncodeToString(sum[:8]),
		}
	}

	base := run(scheduler.Random{})
	if base.ok == 0 {
		t.Fatalf("baseline campaign placed nothing: %+v", base)
	}
	got := run(scheduler.DeadlineBudget{Estimate: time.Hour})
	if got != base {
		t.Errorf("unconstrained deadline-budget diverges from random:\nrandom: %+v\ndb:     %+v", base, got)
	}
}

// runConservationCampaign drives a seeded multi-tenant workload through
// a flaky transport (failed reservations, lost cancels, aborted
// enactments), then quiesces — a virtual-time sleep past the Enactor's
// request TTL plus an explicit sweep — and returns the ledger.
func runConservationCampaign(t *testing.T, seed int64, faultRate float64) *economy.Ledger {
	t.Helper()
	vc := vclock.NewVirtual()
	ms := core.New("conserve", core.Options{
		Seed:    seed,
		Metrics: telemetry.NewRegistry(),
		Clock:   vc,
		Economy: true,
		Retry: resilient.Policy{
			MaxAttempts: 2, BaseDelay: 5 * time.Millisecond,
			Budget: 5 * time.Second, AttemptTimeout: 2 * time.Second,
			Clock: vc, JitterRand: resilient.NewLockedRand(seed),
		},
	})
	defer ms.Close()
	class := ms.DefineClass("Worker", nil)

	rng := rand.New(rand.NewSource(seed))
	fleet := sim.Build(ms, rng, sim.EconomySpecs(rng, 200, "z1", "z2"))
	ms.Runtime().SetLatency(2*time.Millisecond, time.Millisecond)

	led := ms.Ledger()
	budgets := map[string]economy.Credits{}
	for i, tn := range economyTenants {
		// The first tenant runs on a shoestring so the campaign also
		// exercises the budget-refusal rollback path; the rest are rich.
		b := economy.ToCredits(25)
		if i > 0 {
			b = economy.ToCredits(1e6)
		}
		led.Open(tn, b)
		budgets[tn] = b
	}

	if faultRate > 0 {
		var fmu sync.Mutex
		frng := rand.New(rand.NewSource(seed + 1))
		ms.Runtime().SetFaultInjector(func(target loid.LOID, method string) error {
			fmu.Lock()
			defer fmu.Unlock()
			if frng.Float64() < faultRate {
				return fmt.Errorf("%w: flaky link (%s)", orb.ErrInjectedFault, method)
			}
			return nil
		})
	}

	vc.Run(func() {
		_ = fleet.Drive(context.Background(), class, sim.DriverConfig{
			Clock:       vc,
			Rate:        1000,
			Requests:    800,
			Arrivals:    sim.Poisson,
			Seed:        seed,
			Deadline:    5 * time.Second,
			SnapshotTTL: 10 * time.Second,
			Spec:        economySpec,
		})
		// Quiesce: outlive the Enactor's request TTL so the sweep below
		// refunds every orphaned episode (replies lost to faults).
		_ = vc.Sleep(context.Background(), 6*time.Minute)
	})
	ms.Runtime().SetFaultInjector(nil)
	// One more reservation runs the sweep. An empty request list is
	// refused after it and holds nothing.
	if fb := ms.Enactor.MakeReservations(context.Background(), sched.RequestList{}); fb.Reason != sched.FailureMalformed {
		t.Errorf("seed %d: empty request list: %+v, want refused as malformed", seed, fb)
	}

	for tn, b := range budgets {
		if got := led.Account(tn).Budget; got != b {
			t.Errorf("seed %d: tenant %s budget drifted: %v != %v", seed, tn, got, b)
		}
	}
	return led
}

// TestEconomyLedgerConservationCampaign is the campaign-level property
// test: across randomized multi-tenant workloads with injected
// transport faults (failed enactments, rollbacks, lost cancellations),
// every tenant's credits are conserved to the token — budget =
// remaining + outstanding throughout, every refund matches a charge,
// and after quiescence every charge has been refunded exactly once,
// restoring remaining == budget.
func TestEconomyLedgerConservationCampaign(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		rate float64
	}{
		{seed: 7, rate: 0},
		{seed: 11, rate: 0.05},
	} {
		t.Run(fmt.Sprintf("seed=%d_fault=%v", tc.seed, tc.rate), func(t *testing.T) {
			led := runConservationCampaign(t, tc.seed, tc.rate)
			if msgs := led.Audit(); len(msgs) > 0 {
				t.Errorf("ledger audit failed: %v", msgs)
			}
			if n := led.LiveCharges(); n != 0 {
				t.Errorf("%d live charges after quiescence", n)
			}
			var spent economy.Credits
			for _, a := range led.Accounts() {
				if a.Spent != a.Refunded {
					t.Errorf("tenant %q: spent %v != refunded %v after teardown",
						a.Tenant, a.Spent, a.Refunded)
				}
				if a.Remaining() != a.Budget {
					t.Errorf("tenant %q: remaining %v != budget %v after teardown",
						a.Tenant, a.Remaining(), a.Budget)
				}
				spent += a.Spent
			}
			if spent == 0 {
				t.Error("campaign spent nothing: the property was tested against a no-op")
			}
		})
	}
}

// TestPreemptionExactlyOnce is the preemption chaos test: a paying
// tenant's instance on spot capacity is evicted by PreemptingPolicy
// while the reservation-cancel RPC path is completely broken. The
// victim's charge must be refunded exactly once (replanning must not
// double-refund), the stranded source token must not surface as a
// reservation leak, and the migration audit must stay clean end to end.
func TestPreemptionExactlyOnce(t *testing.T) {
	ms := core.New("preempt", core.Options{Seed: 3, Metrics: telemetry.NewRegistry(), Economy: true})
	defer ms.Close()
	vlt := ms.AddVault(vaultCfg("z1"))

	spot := ms.AddHost(host.Config{
		Arch: "x86", OS: "Linux", CPUs: 2, MemoryMB: 256, Zone: "z1",
		Price: 0.1, Spot: true, Vaults: []loid.LOID{vlt.LOID()},
	})
	reserved := ms.AddHost(host.Config{
		Arch: "x86", OS: "Linux", CPUs: 2, MemoryMB: 256, Zone: "z1",
		Price: 0.5, Vaults: []loid.LOID{vlt.LOID()},
	})
	class := ms.DefineClass("Worker", nil)
	led := ms.Ledger()
	led.Open("payer", economy.ToCredits(100))

	// Place one instance directly onto the spot host.
	ctx := context.Background()
	req := sched.RequestList{
		ID: ms.Enactor.NewRequestID(),
		Masters: []sched.Master{{Mappings: []sched.Mapping{{
			Class: class.LOID(), Host: spot.LOID(), Vault: vlt.LOID(),
		}}}},
		Res: sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour, Tenant: "payer"},
	}
	if fb := ms.Enactor.MakeReservations(ctx, req); !fb.Success {
		t.Fatalf("make_reservations failed: %s", fb.Detail)
	}
	enact := ms.Enactor.EnactSchedule(ctx, req.ID)
	if !enact.Success {
		t.Fatalf("enact failed: %s", enact.Detail)
	}
	victim := enact.Instances[0][0]
	charged := led.Account("payer").Spent
	if charged <= 0 {
		t.Fatal("placement on a priced host charged nothing")
	}
	if led.Account("payer").Refunded != 0 {
		t.Fatal("refund recorded before any cancellation")
	}

	// Chaos: every reservation-cancel RPC is lost from here on.
	ms.Runtime().SetFaultInjector(func(target loid.LOID, method string) error {
		if method == proto.MethodCancelReservation {
			return fmt.Errorf("%w: cancel lost", orb.ErrInjectedFault)
		}
		return nil
	})
	defer ms.Runtime().SetFaultInjector(nil)

	pol := &rebalance.PreemptingPolicy{MaxShedPerEvent: 1, Ledger: led}
	ev := proto.NotifyArgs{Source: spot.LOID(), Trigger: "deadline_at_risk"}
	moves, err := pol.Plan(ctx, ev, ms, []*classobj.Class{class})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if len(moves) != 1 {
		t.Fatalf("want 1 move, got %d", len(moves))
	}
	if moves[0].Instance != victim {
		t.Errorf("planned victim %v, want %v", moves[0].Instance, victim)
	}
	if moves[0].ToHost != reserved.LOID() {
		t.Errorf("victim moved to %v, want the reserved host %v", moves[0].ToHost, reserved.LOID())
	}
	refundedOnce := led.Account("payer").Refunded
	if refundedOnce != charged {
		t.Errorf("refund %v != charge %v", refundedOnce, charged)
	}

	// Replan before the move executes: a re-fired trigger must not
	// refund again.
	if _, err := pol.Plan(ctx, ev, ms, []*classobj.Class{class}); err != nil {
		t.Fatalf("replan: %v", err)
	}
	if got := led.Account("payer").Refunded; got != refundedOnce {
		t.Errorf("double refund: %v after replan, want %v", got, refundedOnce)
	}

	if err := ms.Migrate(ctx, moves[0].Class, moves[0].Instance, moves[0].ToHost, moves[0].ToVault); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	if !reserved.IsRunning(victim) {
		t.Error("victim not running on the reserved host after migration")
	}
	// The source token could not be cancelled (the RPC path is down),
	// but it was marked preempted — the conservation audit must not
	// report it as a leak.
	if n := spot.ReservationLeaks(); n != 0 {
		t.Errorf("preempted token reported as %d leaks", n)
	}
	if n := spot.PreemptedTokens(); n != 1 {
		t.Errorf("preempted tokens = %d, want 1", n)
	}
	if audit := ms.AuditMigrations(class); !audit.Clean() {
		t.Errorf("migration audit dirty after preemption: %s", audit)
	}
	if msgs := led.Audit(); len(msgs) > 0 {
		t.Errorf("ledger audit failed: %v", msgs)
	}
}
