package chaos

import (
	"context"
	"errors"
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/host"
	"legion/internal/resilient"
	"legion/internal/sched"
	"legion/internal/scheduler"
)

// fastRetry keeps chaos runs quick: short backoff, tight budgets.
func fastRetry() resilient.Policy {
	return resilient.Policy{
		MaxAttempts:    4,
		BaseDelay:      time.Millisecond,
		Budget:         5 * time.Second,
		AttemptTimeout: 2 * time.Second,
	}
}

func newWorld(t *testing.T, specs ...SiteSpec) *World {
	t.Helper()
	w, err := NewWorld(42, core.Options{Seed: 7, Retry: fastRetry()}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// place drives the full Figure 3 pipeline on site s: IRS schedules,
// Wrapper negotiation, Enactor reservation + instantiation.
func place(t *testing.T, s *Site, count int) (scheduler.Outcome, error) {
	t.Helper()
	class, _ := s.MS.Class("Worker")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.MS.PlaceApplicationLimits(ctx, scheduler.IRS{NSched: 3},
		scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: count}},
			Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
		},
		scheduler.Wrapper{SchedTryLimit: 6, EnactTryLimit: 2})
}

// TestScenarios drives one wounded single-domain metasystem per row and
// asserts placement either survives the chaos or fails cleanly without
// leaking reservations.
func TestScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		// wound applies faults; the returned int is how many of the 4
		// hosts were crashed (placements must avoid them).
		wound       func(w *World, s *Site) int
		wantSuccess bool
	}{
		{
			name:        "baseline",
			wound:       func(w *World, s *Site) int { return 0 },
			wantSuccess: true,
		},
		{
			name: "flaky5pct",
			wound: func(w *World, s *Site) int {
				w.Flaky(s.MS.Runtime(), 0.05)
				return 0
			},
			wantSuccess: true,
		},
		{
			name: "flaky20pct",
			wound: func(w *World, s *Site) int {
				w.Flaky(s.MS.Runtime(), 0.20)
				return 0
			},
			wantSuccess: true,
		},
		{
			// The acceptance scenario: 20% injected faults plus one
			// crashed host, and placement still lands.
			name: "flaky20pct_one_host_crashed",
			wound: func(w *World, s *Site) int {
				w.CrashHost(s, 0)
				w.Flaky(s.MS.Runtime(), 0.20)
				return 1
			},
			wantSuccess: true,
		},
		{
			name: "slow_site",
			wound: func(w *World, s *Site) int {
				w.Slow(s, 2*time.Millisecond, time.Millisecond)
				return 0
			},
			wantSuccess: true,
		},
		{
			// Everything dead: the protocol must give up with a
			// classified error, not hang, and hold no reservations.
			name: "all_hosts_crashed",
			wound: func(w *World, s *Site) int {
				for i := range s.MS.Hosts() {
					w.CrashHost(s, i)
				}
				return 4
			},
			wantSuccess: false,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			w := newWorld(t, SiteSpec{Domain: "uva", Hosts: 4})
			s := w.Sites[0]
			crashed := sc.wound(w, s)
			out, err := place(t, s, 3)
			if sc.wantSuccess {
				if err != nil || !out.Success {
					t.Fatalf("placement failed under %s: %v (outcome %+v)", sc.name, err, out)
				}
				if got := w.TotalRunning(s); got != 3 {
					t.Errorf("running = %d, want 3", got)
				}
				if crashed > 0 {
					for i := 0; i < crashed; i++ {
						if n := s.MS.Hosts()[i].RunningCount(); n != 0 {
							t.Errorf("crashed host %d runs %d objects", i, n)
						}
					}
				}
			} else {
				if err == nil {
					t.Fatalf("placement succeeded against a dead world: %+v", out)
				}
				if !errors.Is(err, scheduler.ErrExhausted) {
					t.Errorf("failure not classified as exhaustion: %v", err)
				}
				if n := w.OrphanedReservations(s); n != 0 {
					t.Errorf("reservations leaked after failure: %d", n)
				}
			}
		})
	}
}

// TestPartitionFallsBackThenHeals wounds a two-domain federation: uva's
// Enactor negotiating a schedule that prefers sdsc must fall back to the
// local master while sdsc is partitioned away, then reach sdsc again
// after the partition heals.
func TestPartitionFallsBackThenHeals(t *testing.T) {
	w := newWorld(t,
		SiteSpec{Domain: "uva", Hosts: 1},
		SiteSpec{Domain: "sdsc", Hosts: 1})
	uva, sdsc := w.Site("uva"), w.Site("sdsc")
	ctx := context.Background()

	remoteFirst := func(id uint64) sched.RequestList {
		uvaClass, _ := uva.MS.Class("Worker")
		return sched.RequestList{
			ID: id,
			Masters: []sched.Master{
				{Mappings: []sched.Mapping{{
					Class: uvaClass.LOID(),
					Host:  sdsc.MS.Hosts()[0].LOID(),
					Vault: sdsc.MS.Vaults()[0].LOID(),
				}}},
				{Mappings: []sched.Mapping{{
					Class: uvaClass.LOID(),
					Host:  uva.MS.Hosts()[0].LOID(),
					Vault: uva.MS.Vaults()[0].LOID(),
				}}},
			},
			Res: sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
		}
	}

	w.Partition(uva.MS.Runtime(), "sdsc")
	fb := uva.MS.Enactor.MakeReservations(ctx, remoteFirst(uva.MS.Enactor.NewRequestID()))
	if !fb.Success {
		t.Fatalf("no fallback during partition: %+v", fb)
	}
	if fb.MasterIndex != 1 {
		t.Errorf("winning master = %d, want 1 (the local fallback)", fb.MasterIndex)
	}

	w.HealAll()
	fb = uva.MS.Enactor.MakeReservations(ctx, remoteFirst(uva.MS.Enactor.NewRequestID()))
	if !fb.Success {
		t.Fatalf("post-heal reservations: %+v", fb)
	}
	if fb.MasterIndex != 0 {
		t.Errorf("winning master after heal = %d, want 0 (the remote preference)", fb.MasterIndex)
	}
}

// TestBreakerOpensOnUnreachableEndpointAndRecovers hammers a partitioned
// endpoint until its circuit opens (fail-fast), then heals the network
// and verifies the half-open probe closes the circuit again.
func TestBreakerOpensOnUnreachableEndpointAndRecovers(t *testing.T) {
	w := newWorld(t,
		SiteSpec{Domain: "uva", Hosts: 1},
		SiteSpec{Domain: "sdsc", Hosts: 1})
	uva, sdsc := w.Site("uva"), w.Site("sdsc")
	target := sdsc.MS.Hosts()[0].LOID()

	bc := resilient.BreakerConfig{FailureThreshold: 3, Cooldown: 20 * time.Millisecond}
	caller := resilient.NewCaller(uva.MS.Runtime(), resilient.Policy{MaxAttempts: 1}, resilient.NewBreakerSet(bc, nil))
	ctx := context.Background()

	w.Partition(uva.MS.Runtime(), "sdsc")
	for i := 0; i < 3; i++ {
		if _, err := caller.Call(ctx, target, "get_attributes", nil); err == nil {
			t.Fatal("partitioned call succeeded")
		}
	}
	// Circuit open: the next call fails fast without touching the wire.
	if _, err := caller.Call(ctx, target, "get_attributes", nil); !errors.Is(err, resilient.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}

	w.HealAll()
	time.Sleep(25 * time.Millisecond) // past the cooldown: half-open
	if _, err := caller.Call(ctx, target, "get_attributes", nil); err != nil {
		t.Fatalf("half-open probe failed after heal: %v", err)
	}
	if st := caller.Breakers().For(target.String()).State(); st != resilient.Closed {
		t.Errorf("breaker state after recovery = %v, want closed", st)
	}
}

// TestDaemonFlagsCrashedHostAndSchedulerAvoidsIt runs the failure
// detector against a crashed host and verifies schedulers skip the
// flagged record while it is down — and use it again after revival.
func TestDaemonFlagsCrashedHostAndSchedulerAvoidsIt(t *testing.T) {
	w := newWorld(t, SiteSpec{Domain: "uva", Hosts: 2, HostMutate: func(i int, c *host.Config) {
		c.MaxShared = 16
	}})
	s := w.Sites[0]
	d := s.MS.NewDaemon()
	ctx := context.Background()

	if got := d.Sweep(ctx); got != 2 {
		t.Fatalf("healthy sweep deposits = %d", got)
	}

	revive := w.CrashHost(s, 0)
	d.Sweep(ctx) // failure 1
	d.Sweep(ctx) // failure 2: crossed DownAfter, record flagged

	// Scheduling now avoids the dead host entirely.
	for i := 0; i < 3; i++ {
		out, err := place(t, s, 2)
		if err != nil || !out.Success {
			t.Fatalf("placement with flagged host: %v", err)
		}
	}
	if n := s.MS.Hosts()[0].RunningCount(); n != 0 {
		t.Errorf("dead-flagged host received %d objects", n)
	}

	// Revival: the next sweep clears the flag and the host serves again.
	revive()
	d.Sweep(ctx)
	hosts, err := scheduler.QueryHosts(ctx, s.MS.Env(), `$host_alive == true`)
	if err != nil || len(hosts) != 2 {
		t.Fatalf("post-revival alive hosts = %d (%v), want 2", len(hosts), err)
	}
}
