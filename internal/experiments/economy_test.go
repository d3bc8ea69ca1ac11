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

	"legion/internal/core"
	"legion/internal/economy"
	"legion/internal/loid"
	"legion/internal/orb"
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
	fleet := sim.New(sim.Spec{Domain: "conserve", Options: core.Options{
		Seed:    seed,
		Metrics: telemetry.NewRegistry(),
		Clock:   vc,
		Economy: true,
		Retry: resilient.Policy{
			MaxAttempts: 2, BaseDelay: 5 * time.Millisecond,
			Budget: 5 * time.Second, AttemptTimeout: 2 * time.Second,
			Clock: vc, JitterRand: resilient.NewLockedRand(seed),
		},
	}, Hosts: sim.EconomySpecs(rand.New(rand.NewSource(seed)), 200, "z1", "z2")})
	ms := fleet.MS
	defer ms.Close()
	class := ms.DefineClass("Worker", nil)
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
