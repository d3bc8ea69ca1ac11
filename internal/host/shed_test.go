package host

import (
	"context"
	"errors"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/reservation"
)

// shedReq builds a reservation request at the given priority.
func shedReq(e *testEnv, priority int) proto.MakeReservationArgs {
	return proto.MakeReservationArgs{
		Requester: loid.LOID{Domain: "uva", Class: "Sched", Instance: 1},
		Vault:     e.vault.LOID(),
		Type:      reservation.Type{Share: true, Reuse: true},
		Duration:  time.Hour,
		Priority:  priority,
	}
}

// TestLoadShedPolicyRefusesLowPriorityAboveWatermark drives occupancy
// past the watermark and verifies low-priority requests are shed with
// the typed orb.ErrOverload (counted separately from other refusals)
// while high-priority requests still get the remaining capacity.
func TestLoadShedPolicyRefusesLowPriorityAboveWatermark(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.MaxShared = 4 })
	e.host.SetPolicy(e.host.LoadShedPolicy(0.5))
	ctx := context.Background()

	// Two grants of four slots: occupancy 0.5 = watermark.
	for i := 0; i < 2; i++ {
		if _, err := e.host.MakeReservation(ctx, shedReq(e, 0)); err != nil {
			t.Fatalf("below-watermark grant %d: %v", i, err)
		}
	}

	// Priority 0 is now shed; the shed wraps orb.ErrOverload (so the
	// resilient classifier treats it as a refusal, not a transport
	// fault).
	_, err := e.host.MakeReservation(ctx, shedReq(e, 0))
	if !errors.Is(err, orb.ErrOverload) {
		t.Fatalf("above-watermark low-priority: %v, want ErrOverload", err)
	}

	// Priority >= minPriority rides through until the hard table limit.
	if _, err := e.host.MakeReservation(ctx, shedReq(e, 1)); err != nil {
		t.Fatalf("high-priority above watermark: %v", err)
	}
	if _, err := e.host.MakeReservation(ctx, shedReq(e, 2)); err != nil {
		t.Fatalf("high-priority above watermark: %v", err)
	}
	// Table full (4/4): even high priority hits the Table 2 hard limit.
	if _, err := e.host.MakeReservation(ctx, shedReq(e, 9)); !errors.Is(err, reservation.ErrConflict) {
		t.Fatalf("at hard limit: %v, want ErrConflict", err)
	}

	if n := e.host.met.shed.Value(); n != 1 {
		t.Fatalf("legion_host_reservations_shed_total = %d, want 1", n)
	}
	// Sheds also count as refusals (they are refusals).
	if n := e.host.met.refused.Value(); n < 1 {
		t.Fatalf("refused = %d, want >= 1", n)
	}
}

// TestSetPolicySwapsLive verifies SetPolicy replaces the policy on a
// built host (the LoadShedPolicy install path) and that nil restores
// accept-everything.
func TestSetPolicySwapsLive(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()

	e.host.SetPolicy(RefuseDomains("uva"))
	if _, err := e.host.MakeReservation(ctx, shedReq(e, 0)); !errors.Is(err, ErrPolicy) {
		t.Fatalf("refuse-domains policy: %v, want ErrPolicy", err)
	}
	e.host.SetPolicy(nil)
	if _, err := e.host.MakeReservation(ctx, shedReq(e, 0)); err != nil {
		t.Fatalf("after clearing policy: %v", err)
	}
}

// TestNegativeConfirmationTimeoutRejected pins the Host/Enactor timeout
// semantics audit: a negative confirmation window must be rejected as
// malformed at the table, not stored as an unexpirable grant the reaper
// can never reclaim.
func TestNegativeConfirmationTimeoutRejected(t *testing.T) {
	e := newEnv(t, nil)
	req := shedReq(e, 0)
	req.Timeout = -time.Second
	_, err := e.host.MakeReservation(context.Background(), req)
	if !errors.Is(err, reservation.ErrBadRequest) {
		t.Fatalf("negative timeout: %v, want ErrBadRequest", err)
	}
	if n := e.host.ActiveReservations(); n != 0 {
		t.Fatalf("rejected request left %d reservations", n)
	}
}
