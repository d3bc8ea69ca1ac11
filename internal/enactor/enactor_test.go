package enactor

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"legion/internal/classobj"
	"legion/internal/economy"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/telemetry"
	"legion/internal/vault"
)

// env wires hosts, a vault, a class, and an enactor on one runtime.
type env struct {
	rt      *orb.Runtime
	vault   *vault.Vault
	hosts   []*host.Host
	class   *classobj.Class
	enactor *Enactor
}

func newEnv(t *testing.T, nHosts int, mutate func(i int, c *host.Config)) *env {
	t.Helper()
	rt := orb.NewRuntime("uva")
	// A private registry per env keeps counter assertions independent of
	// other tests (and of -count=N reruns) sharing telemetry.Default.
	rt.SetMetrics(telemetry.NewRegistry())
	v := vault.New(rt, vault.Config{Zone: "z1"})
	hosts := make([]*host.Host, nHosts)
	for i := range hosts {
		cfg := host.Config{
			Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1",
			Vaults: []loid.LOID{v.LOID()},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		hosts[i] = host.New(rt, cfg)
	}
	c := classobj.New(rt, classobj.Config{Name: "Worker"})
	e := New(rt, Config{CallTimeout: 5 * time.Second})
	return &env{rt: rt, vault: v, hosts: hosts, class: c, enactor: e}
}

func (e *env) mapping(hostIdx int) sched.Mapping {
	return sched.Mapping{Class: e.class.LOID(), Host: e.hosts[hostIdx].LOID(), Vault: e.vault.LOID()}
}

func (e *env) request(mappings ...sched.Mapping) sched.RequestList {
	return sched.RequestList{
		ID:      e.enactor.NewRequestID(),
		Masters: []sched.Master{{Mappings: mappings}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
}

func TestReserveAndEnactSuccess(t *testing.T) {
	e := newEnv(t, 2, nil)
	ctx := context.Background()
	req := e.request(e.mapping(0), e.mapping(1), e.mapping(0))

	fb := e.enactor.MakeReservations(ctx, req)
	if !fb.Success || fb.MasterIndex != 0 || len(fb.Resolved) != 3 {
		t.Fatalf("feedback: %+v", fb)
	}
	if fb.Stats.ReservationsRequested != 3 || fb.Stats.ReservationsGranted != 3 ||
		fb.Stats.ReservationsCancelled != 0 {
		t.Errorf("stats: %+v", fb.Stats)
	}

	reply := e.enactor.EnactSchedule(ctx, req.ID)
	if !reply.Success {
		t.Fatalf("enact: %+v", reply)
	}
	if len(reply.Instances) != 3 {
		t.Fatalf("instances: %v", reply.Instances)
	}
	// Objects are genuinely running: host 0 has 2, host 1 has 1.
	if e.hosts[0].RunningCount() != 2 || e.hosts[1].RunningCount() != 1 {
		t.Errorf("running: %d, %d", e.hosts[0].RunningCount(), e.hosts[1].RunningCount())
	}
	for _, insts := range reply.Instances {
		for _, inst := range insts {
			if res, err := e.rt.Call(ctx, inst, "ping", nil); err != nil || res != "pong" {
				t.Errorf("instance %v: %v %v", inst, res, err)
			}
		}
	}
	// Enacted() reports the same instance sets.
	got, err := e.enactor.Enacted(req.ID)
	if err != nil || len(got) != 3 {
		t.Errorf("Enacted: %v %v", got, err)
	}
	// Enact is idempotent: a retried call (e.g. after a lost reply)
	// reports the same instances and creates nothing new.
	r2 := e.enactor.EnactSchedule(ctx, req.ID)
	if !r2.Success || len(r2.Instances) != 3 {
		t.Errorf("retried enact: %+v", r2)
	}
	if e.hosts[0].RunningCount() != 2 || e.hosts[1].RunningCount() != 1 {
		t.Errorf("retried enact duplicated objects: %d, %d",
			e.hosts[0].RunningCount(), e.hosts[1].RunningCount())
	}
}

func TestMalformedScheduleFeedback(t *testing.T) {
	e := newEnv(t, 1, nil)
	fb := e.enactor.MakeReservations(context.Background(), sched.RequestList{ID: 1})
	if fb.Success || fb.Reason != sched.FailureMalformed {
		t.Errorf("feedback: %+v", fb)
	}
	fb = e.enactor.MakeReservations(context.Background(), sched.RequestList{
		ID:      2,
		Masters: []sched.Master{{Mappings: []sched.Mapping{{}}}},
	})
	if fb.Success || fb.Reason != sched.FailureMalformed {
		t.Errorf("nil-LOID feedback: %+v", fb)
	}
}

func TestResourceFailureFeedbackAndRollback(t *testing.T) {
	// Host 1 refuses everything via policy.
	e := newEnv(t, 2, func(i int, c *host.Config) {
		if i == 1 {
			c.Policy = func(proto.MakeReservationArgs) error {
				return fmt.Errorf("%w: always refuses", host.ErrPolicy)
			}
		}
	})
	ctx := context.Background()
	req := e.request(e.mapping(0), e.mapping(1))
	fb := e.enactor.MakeReservations(ctx, req)
	if fb.Success || fb.Reason != sched.FailureResources {
		t.Fatalf("feedback: %+v", fb)
	}
	// The reservation obtained on host 0 was rolled back (all-or-nothing
	// co-allocation): nothing is held, so a fresh exclusive-style request
	// for the full host succeeds.
	if fb.Stats.ReservationsGranted != 1 || fb.Stats.ReservationsCancelled != 1 {
		t.Errorf("stats: %+v", fb.Stats)
	}
	// Enacting a failed request is refused.
	if r := e.enactor.EnactSchedule(ctx, req.ID); r.Success {
		t.Error("enact of failed request succeeded")
	}
}

func TestVariantPatchingAvoidsThrashing(t *testing.T) {
	// Host 1 is broken; the master maps entries to hosts {0, 1}; a
	// variant redirects entry 1 to host 2. Entry 0's reservation must
	// survive (no cancel+remake).
	e := newEnv(t, 3, func(i int, c *host.Config) {
		if i == 1 {
			c.Policy = func(proto.MakeReservationArgs) error {
				return fmt.Errorf("%w: broken host", host.ErrPolicy)
			}
		}
	})
	ctx := context.Background()

	master := sched.Master{Mappings: []sched.Mapping{e.mapping(0), e.mapping(1)}}
	var v sched.Variant
	v.AddReplacement(1, e.mapping(2))
	master.Variants = []sched.Variant{v}

	req := sched.RequestList{
		ID:      e.enactor.NewRequestID(),
		Masters: []sched.Master{master},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	fb := e.enactor.MakeReservations(ctx, req)
	if !fb.Success {
		t.Fatalf("feedback: %+v", fb)
	}
	if len(fb.VariantsApplied) != 1 || fb.VariantsApplied[0] != 0 {
		t.Errorf("variants applied: %v", fb.VariantsApplied)
	}
	if fb.Resolved[1].Host != e.hosts[2].LOID() {
		t.Errorf("resolved entry 1 on %v", fb.Resolved[1].Host)
	}
	// Thrash avoidance: entry 0's token was never cancelled.
	if fb.Stats.ReservationsCancelled != 0 {
		t.Errorf("cancelled = %d, want 0 (no thrashing)", fb.Stats.ReservationsCancelled)
	}
	// 3 requested (0 ok, 1 fail, then 2 ok), 2 granted.
	if fb.Stats.ReservationsRequested != 3 || fb.Stats.ReservationsGranted != 2 {
		t.Errorf("stats: %+v", fb.Stats)
	}
	if fb.Stats.VariantsTried != 1 {
		t.Errorf("variants tried: %d", fb.Stats.VariantsTried)
	}

	reply := e.enactor.EnactSchedule(ctx, req.ID)
	if !reply.Success {
		t.Fatalf("enact: %+v", reply)
	}
	if e.hosts[0].RunningCount() != 1 || e.hosts[2].RunningCount() != 1 {
		t.Error("objects not on expected hosts")
	}
}

func TestVariantKeepsHeldEntriesEvenWhenCovered(t *testing.T) {
	// Master maps both entries, entry 1's host (1) is broken; the
	// variant offers alternatives for BOTH entries (0 -> host 2 too).
	// Thrash avoidance: entry 0's successful reservation is kept — only
	// the failed entry moves — so nothing is cancelled and remade.
	e := newEnv(t, 3, func(i int, c *host.Config) {
		if i == 1 {
			c.Policy = func(proto.MakeReservationArgs) error {
				return fmt.Errorf("%w: broken", host.ErrPolicy)
			}
		}
	})
	master := sched.Master{Mappings: []sched.Mapping{e.mapping(0), e.mapping(1)}}
	var v sched.Variant
	v.AddReplacement(0, e.mapping(2))
	v.AddReplacement(1, e.mapping(2))
	master.Variants = []sched.Variant{v}
	req := sched.RequestList{
		ID:      e.enactor.NewRequestID(),
		Masters: []sched.Master{master},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	fb := e.enactor.MakeReservations(context.Background(), req)
	if !fb.Success {
		t.Fatalf("feedback: %+v", fb)
	}
	if fb.Stats.ReservationsCancelled != 0 {
		t.Errorf("cancelled = %d, want 0 (thrash avoidance keeps held entries)",
			fb.Stats.ReservationsCancelled)
	}
	if fb.Resolved[0].Host != e.hosts[0].LOID() || fb.Resolved[1].Host != e.hosts[2].LOID() {
		t.Errorf("resolved: %v", fb.Resolved)
	}
}

func TestMultipleMastersFallthrough(t *testing.T) {
	// First master targets only the broken host; second targets a good
	// one.
	e := newEnv(t, 2, func(i int, c *host.Config) {
		if i == 0 {
			c.Policy = func(proto.MakeReservationArgs) error {
				return fmt.Errorf("%w: broken", host.ErrPolicy)
			}
		}
	})
	req := sched.RequestList{
		ID: e.enactor.NewRequestID(),
		Masters: []sched.Master{
			{Mappings: []sched.Mapping{e.mapping(0)}},
			{Mappings: []sched.Mapping{e.mapping(1)}},
		},
		Res: sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	fb := e.enactor.MakeReservations(context.Background(), req)
	if !fb.Success || fb.MasterIndex != 1 {
		t.Fatalf("feedback: %+v", fb)
	}
	if fb.Stats.MastersTried != 2 {
		t.Errorf("masters tried: %d", fb.Stats.MastersTried)
	}
}

func TestCancelReservations(t *testing.T) {
	e := newEnv(t, 1, nil)
	ctx := context.Background()
	// Space-sharing: only one reservation fits, proving cancel released it.
	req := sched.RequestList{
		ID:      e.enactor.NewRequestID(),
		Masters: []sched.Master{{Mappings: []sched.Mapping{e.mapping(0)}}},
		Res:     sched.ReservationSpec{Share: false, Reuse: true, Duration: time.Hour},
	}
	fb := e.enactor.MakeReservations(ctx, req)
	if !fb.Success {
		t.Fatal("reserve failed")
	}
	// A second exclusive request conflicts while the first is held.
	req2 := sched.RequestList{
		ID:      e.enactor.NewRequestID(),
		Masters: []sched.Master{{Mappings: []sched.Mapping{e.mapping(0)}}},
		Res:     sched.ReservationSpec{Share: false, Reuse: true, Duration: time.Hour},
	}
	if fb2 := e.enactor.MakeReservations(ctx, req2); fb2.Success {
		t.Fatal("conflicting exclusive reservation granted")
	}
	if err := e.enactor.CancelReservations(ctx, req.ID); err != nil {
		t.Fatal(err)
	}
	// Now it fits.
	req3 := sched.RequestList{
		ID:      e.enactor.NewRequestID(),
		Masters: []sched.Master{{Mappings: []sched.Mapping{e.mapping(0)}}},
		Res:     sched.ReservationSpec{Share: false, Reuse: true, Duration: time.Hour},
	}
	if fb3 := e.enactor.MakeReservations(ctx, req3); !fb3.Success {
		t.Fatal("reserve after cancel failed")
	}
	if err := e.enactor.CancelReservations(ctx, req.ID); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("double cancel: %v", err)
	}
}

// TestLedgerKeysTokensByHost reserves one instance on each of two priced
// hosts. Each host numbers its tokens from 1, so both grants carry ID 1:
// the ledger must charge both, and cancelling one token must refund its
// own charge and no other.
func TestLedgerKeysTokensByHost(t *testing.T) {
	e := newEnv(t, 2, func(i int, c *host.Config) { c.Price = float64(i + 1) })
	led := economy.NewLedger(telemetry.NewRegistry())
	led.Open("astro", economy.ToCredits(10))
	en := New(e.rt, Config{CallTimeout: 5 * time.Second, Ledger: led})
	ctx := context.Background()
	req := e.request(e.mapping(0), e.mapping(1))
	req.ID = en.NewRequestID()
	req.Res.Tenant = "astro"

	if fb := en.MakeReservations(ctx, req); !fb.Success {
		t.Fatalf("two-host placement refused: %+v", fb)
	}
	en.mu.Lock()
	tokens := en.requests[req.ID].tokens
	en.mu.Unlock()
	if len(tokens) != 2 || tokens[0].ID != tokens[1].ID || tokens[0].Host == tokens[1].Host {
		t.Fatalf("want one token ID from each of two hosts, got %+v", tokens)
	}
	if a := led.Account("astro"); a.Spent != economy.ToCredits(3) || led.LiveCharges() != 2 {
		t.Fatalf("spent %v on %d live charges, want 3 on 2", a.Spent, led.LiveCharges())
	}
	cheap := tokens[0]
	if cheap.Host != e.hosts[0].LOID() {
		cheap = tokens[1]
	}
	en.cancelToken(ctx, cheap.Host, cheap)
	if a := led.Account("astro"); a.Refunded != economy.ToCredits(1) || led.LiveCharges() != 1 {
		t.Fatalf("cancelling the price-1 token refunded %v and left %d live charges, want 1 and 1", a.Refunded, led.LiveCharges())
	}
	if err := en.CancelReservations(ctx, req.ID); err != nil {
		t.Fatal(err)
	}
	if a := led.Account("astro"); a.Remaining() != a.Budget || led.LiveCharges() != 0 {
		t.Errorf("after cancelling the request: remaining %v of %v, %d live charges", a.Remaining(), a.Budget, led.LiveCharges())
	}
	if bad := led.Audit(); len(bad) > 0 {
		t.Errorf("ledger audit: %v", bad)
	}
}

func TestEnactUnknownRequest(t *testing.T) {
	e := newEnv(t, 1, nil)
	if r := e.enactor.EnactSchedule(context.Background(), 999); r.Success {
		t.Error("unknown request enacted")
	}
	if _, err := e.enactor.Enacted(999); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("Enacted(999): %v", err)
	}
}

func TestEnactRollbackOnHostDeath(t *testing.T) {
	// Reserve on two hosts, then kill host 1 before enactment. The
	// create_instance for mapping 1 fails; mapping 0's instance must be
	// destroyed by rollback.
	e := newEnv(t, 2, nil)
	ctx := context.Background()
	req := e.request(e.mapping(0), e.mapping(1))
	fb := e.enactor.MakeReservations(ctx, req)
	if !fb.Success {
		t.Fatal("reserve failed")
	}
	// Unbind host 1: calls to it now fail.
	e.rt.Unregister(e.hosts[1].LOID())
	reply := e.enactor.EnactSchedule(ctx, req.ID)
	if reply.Success {
		t.Fatal("enact should fail with host 1 gone")
	}
	if e.hosts[0].RunningCount() != 0 {
		t.Errorf("rollback left %d objects on host 0", e.hosts[0].RunningCount())
	}
	if len(e.class.Instances()) != 0 {
		t.Errorf("class still manages %v", e.class.Instances())
	}
}

func TestOrbProtocol(t *testing.T) {
	e := newEnv(t, 1, nil)
	ctx := context.Background()
	req := e.request(e.mapping(0))

	res, err := e.rt.Call(ctx, e.enactor.LOID(), proto.MethodMakeReservations,
		proto.MakeReservationsArgs{Request: req})
	if err != nil {
		t.Fatal(err)
	}
	fb := res.(proto.FeedbackReply).Feedback
	if !fb.Success {
		t.Fatalf("feedback: %+v", fb)
	}
	res, err = e.rt.Call(ctx, e.enactor.LOID(), proto.MethodEnactSchedule,
		proto.EnactScheduleArgs{RequestID: req.ID})
	if err != nil || !res.(proto.EnactReply).Success {
		t.Fatalf("enact over orb: %v %v", res, err)
	}
	// Cancel of an already-enacted request still releases state.
	if _, err := e.rt.Call(ctx, e.enactor.LOID(), proto.MethodCancelReservations,
		proto.CancelReservationsArgs{RequestID: req.ID}); err != nil {
		t.Errorf("cancel over orb: %v", err)
	}
	for _, m := range []string{proto.MethodMakeReservations, proto.MethodEnactSchedule,
		proto.MethodCancelReservations} {
		if _, err := e.rt.Call(ctx, e.enactor.LOID(), m, "bogus"); err == nil {
			t.Errorf("%s accepted bad arg", m)
		}
	}
}

func TestTotalStatsAccumulate(t *testing.T) {
	e := newEnv(t, 1, nil)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		req := e.request(e.mapping(0))
		if fb := e.enactor.MakeReservations(ctx, req); !fb.Success {
			t.Fatal("reserve failed")
		}
	}
	total := e.enactor.TotalStats()
	if total.ReservationsRequested != 3 || total.ReservationsGranted != 3 || total.MastersTried != 3 {
		t.Errorf("total stats: %+v", total)
	}
}

func TestKofNSelectsAnyK(t *testing.T) {
	// 4 hosts, host 1 broken: a 3-of-4 group must succeed by skipping it.
	e := newEnv(t, 4, func(i int, c *host.Config) {
		if i == 1 {
			c.Policy = func(proto.MakeReservationArgs) error {
				return fmt.Errorf("%w: broken", host.ErrPolicy)
			}
		}
	})
	ctx := context.Background()
	group := sched.KofN{Class: e.class.LOID(), K: 3}
	for i := range e.hosts {
		group.Alternatives = append(group.Alternatives,
			sched.HostVault{Host: e.hosts[i].LOID(), Vault: e.vault.LOID()})
	}
	req := sched.RequestList{
		ID:      e.enactor.NewRequestID(),
		Masters: []sched.Master{{Mappings: []sched.Mapping{e.mapping(0)}, KofN: []sched.KofN{group}}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	fb := e.enactor.MakeReservations(ctx, req)
	if !fb.Success {
		t.Fatalf("feedback: %+v", fb)
	}
	// 1 base mapping + 3 group members resolved.
	if len(fb.Resolved) != 4 {
		t.Fatalf("resolved: %v", fb.Resolved)
	}
	seen := map[loid.LOID]bool{}
	for _, m := range fb.Resolved[1:] {
		if m.Host == e.hosts[1].LOID() {
			t.Errorf("group placed on broken host")
		}
		if seen[m.Host] {
			t.Errorf("group reused host %v", m.Host)
		}
		seen[m.Host] = true
	}
	// Enactment creates one instance per group member.
	reply := e.enactor.EnactSchedule(ctx, req.ID)
	if !reply.Success || len(reply.Instances) != 4 {
		t.Fatalf("enact: %+v", reply)
	}
}

func TestKofNInsufficientAlternatives(t *testing.T) {
	// 3 hosts, 2 broken: a 2-of-3 group cannot be satisfied; the base
	// mapping's reservation must be rolled back.
	e := newEnv(t, 3, func(i int, c *host.Config) {
		if i != 0 {
			c.Policy = func(proto.MakeReservationArgs) error {
				return fmt.Errorf("%w: broken", host.ErrPolicy)
			}
		}
	})
	ctx := context.Background()
	group := sched.KofN{Class: e.class.LOID(), K: 2}
	for i := 1; i < 3; i++ {
		group.Alternatives = append(group.Alternatives,
			sched.HostVault{Host: e.hosts[i].LOID(), Vault: e.vault.LOID()})
	}
	// Need len(alternatives) >= K for validation; give it 2 broken alts.
	req := sched.RequestList{
		ID:      e.enactor.NewRequestID(),
		Masters: []sched.Master{{Mappings: []sched.Mapping{e.mapping(0)}, KofN: []sched.KofN{group}}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	fb := e.enactor.MakeReservations(ctx, req)
	if fb.Success {
		t.Fatalf("feedback: %+v", fb)
	}
	if fb.Reason != sched.FailureResources {
		t.Errorf("reason: %v", fb.Reason)
	}
	// Base reservation was granted then rolled back.
	if fb.Stats.ReservationsGranted != 1 || fb.Stats.ReservationsCancelled != 1 {
		t.Errorf("stats: %+v", fb.Stats)
	}
}

func TestKofNValidation(t *testing.T) {
	e := newEnv(t, 1, nil)
	bad := sched.KofN{Class: e.class.LOID(), K: 3,
		Alternatives: []sched.HostVault{{Host: e.hosts[0].LOID(), Vault: e.vault.LOID()}}}
	req := sched.RequestList{
		ID:      e.enactor.NewRequestID(),
		Masters: []sched.Master{{KofN: []sched.KofN{bad}}},
	}
	fb := e.enactor.MakeReservations(context.Background(), req)
	if fb.Success || fb.Reason != sched.FailureMalformed {
		t.Errorf("k > n accepted: %+v", fb)
	}
}

func TestKofNOnlyGroupsNoBaseMappings(t *testing.T) {
	e := newEnv(t, 2, nil)
	ctx := context.Background()
	group := sched.KofN{Class: e.class.LOID(), K: 2, Alternatives: []sched.HostVault{
		{Host: e.hosts[0].LOID(), Vault: e.vault.LOID()},
		{Host: e.hosts[1].LOID(), Vault: e.vault.LOID()},
	}}
	req := sched.RequestList{
		ID:      e.enactor.NewRequestID(),
		Masters: []sched.Master{{KofN: []sched.KofN{group}}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	fb := e.enactor.MakeReservations(ctx, req)
	if !fb.Success || len(fb.Resolved) != 2 {
		t.Fatalf("feedback: %+v", fb)
	}
	reply := e.enactor.EnactSchedule(ctx, req.ID)
	if !reply.Success {
		t.Fatalf("enact: %+v", reply)
	}
	if e.hosts[0].RunningCount() != 1 || e.hosts[1].RunningCount() != 1 {
		t.Error("group instances not distributed")
	}
}
