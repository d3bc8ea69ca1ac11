package enactor

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/classobj"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/telemetry"
	"legion/internal/vault"
)

// TestParallelNegotiationStress hammers one Enactor with concurrent
// wide-schedule episodes while a chaos injector faults 20% of the
// reservation and create_instance traffic, and then audits conservation:
// no reservation was double-granted (the Enactor's granted count equals
// the hosts' granted count exactly — injected faults fire before
// dispatch, so a retried call grants at most once per success), every
// running instance is accounted for by a successful enactment, and after
// cancelling everything the hosts drain to zero held reservations. Run
// under -race this also exercises the fan-out paths for data races.
func TestParallelNegotiationStress(t *testing.T) {
	const (
		nHosts    = 12
		workers   = 8
		episodes  = 6 // per worker
		faultRate = 0.20
	)

	reg := telemetry.NewRegistry()
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(reg) // private registry: exact counter equality below
	v := vault.New(rt, vault.Config{Zone: "z1"})
	hosts := make([]*host.Host, nHosts)
	for i := range hosts {
		hosts[i] = host.New(rt, host.Config{
			Arch: "x86", OS: "Linux", CPUs: 64, MemoryMB: 1 << 14, Zone: "z1",
			Vaults: []loid.LOID{v.LOID()},
		})
	}
	class := classobj.New(rt, classobj.Config{Name: "Worker"})
	enr := New(rt, Config{Parallelism: 8})

	// Chaos: ~20% of reservation and create calls fail before dispatch
	// (never-reached, so the target does no work — failures cannot leak
	// partial state, which is what makes exact conservation assertable).
	// Cancels and destroys stay clean: cleanup must get through for the
	// drain audit.
	var injMu sync.Mutex
	rng := rand.New(rand.NewSource(42))
	rt.SetFaultInjector(func(_ loid.LOID, method string) error {
		if method != proto.MethodMakeReservation && method != proto.MethodCreateInstance {
			return nil
		}
		injMu.Lock()
		defer injMu.Unlock()
		if rng.Float64() < faultRate {
			return orb.ErrInjectedFault
		}
		return nil
	})

	mapping := func(hi int) sched.Mapping {
		return sched.Mapping{Class: class.LOID(), Host: hosts[hi].LOID(), Vault: v.LOID()}
	}

	var created atomic.Int64 // instances reported by successful enactments
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ep := 0; ep < episodes; ep++ {
				// Wide master over every host, plus a 3-of-n group to
				// exercise the wave-probing path under faults.
				master := sched.Master{}
				for hi := 0; hi < nHosts; hi++ {
					master.Mappings = append(master.Mappings, mapping(hi))
				}
				group := sched.KofN{Class: class.LOID(), K: 3}
				for hi := 0; hi < nHosts; hi++ {
					group.Alternatives = append(group.Alternatives,
						sched.HostVault{Host: hosts[hi].LOID(), Vault: v.LOID()})
				}
				master.KofN = []sched.KofN{group}
				req := sched.RequestList{
					ID:      enr.NewRequestID(),
					Masters: []sched.Master{master},
					Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
				}
				fb := enr.MakeReservations(ctx, req)
				if !fb.Success {
					continue // rolled back internally; audited below
				}
				if (w+ep)%2 == 0 {
					reply := enr.EnactSchedule(ctx, req.ID)
					if reply.Success {
						for _, insts := range reply.Instances {
							created.Add(int64(len(insts)))
						}
					}
					// Release state either way: a successful enactment's
					// reservations are explicitly cancelled; a failed one
					// already rolled back and the cancel reports unknown.
					_ = enr.CancelReservations(ctx, req.ID)
				} else {
					if err := enr.CancelReservations(ctx, req.ID); err != nil {
						t.Errorf("cancel reserved request: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	rt.SetFaultInjector(nil)

	// No double-grant: with never-reached faults the Enactor's view of
	// grants must match the hosts' exactly.
	eg := reg.CounterValue("legion_enactor_reservations_granted_total")
	hg := reg.CounterValue("legion_host_reservations_granted_total")
	if eg != hg {
		t.Errorf("grant conservation: enactor saw %d, hosts granted %d", eg, hg)
	}
	if eg == 0 {
		t.Error("stress run granted nothing; faults drowned the test")
	}

	// Every running object traces to a successful enactment reply.
	running := 0
	for _, h := range hosts {
		running += h.RunningCount()
	}
	if int64(running) != created.Load() {
		t.Errorf("instance conservation: %d running, %d reported created", running, created.Load())
	}
	if n := len(class.Instances()); int64(n) != created.Load() {
		t.Errorf("class manages %d instances, %d reported created", n, created.Load())
	}

	// Token conservation: everything was cancelled or rolled back, so
	// after reaping no host holds a reservation.
	for i, h := range hosts {
		h.ReapReservations()
		if n := h.ActiveReservations(); n != 0 {
			t.Errorf("host %d still holds %d reservations", i, n)
		}
	}
}
