package host

import (
	"testing"
	"time"

	"legion/internal/reservation"
	"legion/internal/vclock"
)

// reaperEpoch is far from any wall time, so a stamp or an expiry read
// off the wall clock instead of the runtime's cannot pass by accident.
var reaperEpoch = time.Date(1970, 1, 12, 0, 0, 0, 0, time.UTC)

// TestReapReservationsReclaimsOrphans simulates an Enactor crashing
// between make_reservation and confirmation: the unconfirmed grant must
// be reclaimed by the reaper once its confirmation timeout passes,
// without any further reservation traffic to trigger lazy expiry.
func TestReapReservationsReclaimsOrphans(t *testing.T) {
	vc := vclock.NewVirtualAt(reaperEpoch)
	e := newEnvOn(t, vc, nil)

	e.reserve(t, reservation.OneShotTimesharing) // orphan: never confirmed
	if n := e.host.ActiveReservations(); n != 1 {
		t.Fatalf("active = %d, want 1", n)
	}
	if n := e.host.ReapReservations(); n != 0 {
		t.Fatalf("premature reap reclaimed %d", n)
	}

	vc.Advance(reservationTimeout + time.Second)
	if n := e.host.ReapReservations(); n != 1 {
		t.Fatalf("reap reclaimed %d, want 1", n)
	}
	if n := e.host.ActiveReservations(); n != 0 {
		t.Fatalf("active after reap = %d, want 0", n)
	}
}

// TestStartReaperRunsInBackground: the periodic reaper, ticking on the
// runtime's virtual clock, reclaims an orphaned grant once virtual time
// passes the confirmation timeout, with no explicit call.
func TestStartReaperRunsInBackground(t *testing.T) {
	vc := vclock.NewVirtualAt(reaperEpoch)
	e := newEnvOn(t, vc, nil)

	e.reserve(t, reservation.OneShotTimesharing) // orphan: never confirmed
	stop := e.host.StartReaper(time.Second)
	defer stop()

	vc.Advance(reservationTimeout - 5*time.Second)
	if n := e.host.ActiveReservations(); n != 1 {
		t.Fatalf("active before the timeout = %d, want 1", n)
	}
	vc.Advance(6 * time.Second) // past the confirmation timeout
	if n := e.host.ActiveReservations(); n != 0 {
		t.Fatalf("background reaper left %d reservations after the virtual timeout", n)
	}
	stop()
	stop() // idempotent
}
