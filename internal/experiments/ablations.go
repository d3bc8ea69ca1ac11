package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/reservation"
	"legion/internal/scheduler"
	"legion/internal/sim"
)

// A1VariantVsRegenerate ablates the variant-schedule mechanism (DESIGN
// D1): placements on a fleet with some broken hosts run once with IRS
// variants enabled and once with a variant-free equivalent that must
// regenerate whole schedules, measuring reservation thrashing
// (cancel+remake) and attempts to success.
func A1VariantVsRegenerate(rounds, brokenCount int) *Table {
	if rounds < 1 {
		rounds = 30
	}
	t := &Table{
		ID:    "A1",
		Title: "Ablation D1: variant schedules vs regenerate-from-scratch",
		Header: []string{"strategy", "success", "reservations requested/plc",
			"cancelled/plc", "sched attempts/plc"},
	}
	ctx := context.Background()
	for _, strat := range []string{"variants (IRS n=4)", "no variants (regenerate)"} {
		env := newMSEnv(8, 4, brokenIdx(brokenCount)...)
		class, _ := env.ms.Class("Worker")
		senv := env.ms.Env()
		var gen scheduler.Generator
		var wrapper scheduler.Wrapper
		if strat == "variants (IRS n=4)" {
			gen = scheduler.IRS{NSched: 4}
			wrapper = scheduler.Wrapper{SchedTryLimit: 1, EnactTryLimit: 1}
		} else {
			gen = scheduler.IRS{NSched: 1} // master only, no variants
			wrapper = scheduler.Wrapper{SchedTryLimit: 4, EnactTryLimit: 1}
		}
		succ, requested, cancelled, attempts := 0, 0, 0, 0
		for r := 0; r < rounds; r++ {
			out, err := wrapper.Run(ctx, senv, env.ms.Enactor.LOID(), gen, scheduler.Request{
				Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 4}},
				Res:     shareSpec(),
			})
			attempts += out.SchedAttempts
			requested += out.Feedback.Stats.ReservationsRequested
			cancelled += out.Feedback.Stats.ReservationsCancelled
			if err == nil {
				succ++
				for i, insts := range out.Instances {
					for _, inst := range insts {
						_, _ = orb.Invoke[proto.Ack](ctx, env.ms.Runtime(), out.Feedback.Resolved[i].Class,
							proto.MethodDestroyInstance, proto.ObjectArgs{Object: inst})
					}
				}
				_ = env.ms.Enactor.CancelReservations(ctx, out.RequestID)
			}
		}
		t.AddRow(strat, pct(succ, rounds),
			fmt.Sprintf("%.1f", float64(requested)/float64(rounds)),
			fmt.Sprintf("%.1f", float64(cancelled)/float64(rounds)),
			fmt.Sprintf("%.2f", float64(attempts)/float64(rounds)))
		env.ms.Close()
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d of 8 hosts refuse all reservations; schedulers cannot see that in advance", brokenCount),
		"without variants, one bad pick wastes the whole schedule's reservations (rollback)")
	return t
}

func brokenIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// A2CoAllocation ablates reservation-based co-allocation (DESIGN D2):
// gang-placing objects under tight admission, comparing
// reserve-all-then-start against optimistic direct starts without an
// all-or-nothing barrier. The optimist strands partial gangs: objects it
// started and must kill when a later sibling is refused.
func A2CoAllocation(rounds, gang int) *Table {
	if rounds < 1 {
		rounds = 20
	}
	if gang < 2 {
		gang = 6
	}
	t := &Table{
		ID:    "A2",
		Title: "Ablation D2: reservation co-allocation vs optimistic direct starts",
		Header: []string{"strategy", "complete gangs", "failed cleanly",
			"partial gangs", "objects started then killed"},
	}
	ctx := context.Background()
	spec := shareSpec()
	for _, strat := range []string{"reserve-all-then-start", "optimistic direct start"} {
		// 4 hosts x 1 CPU -> admission bound 4 shared reservations each;
		// background occupancy makes some hosts nearly full.
		env := newMSEnv(4, 1)
		class, _ := env.ms.Class("Worker")
		for i, h := range env.ms.Hosts() {
			for k := 0; k < i; k++ { // host i carries i background reservations
				_, _ = h.MakeReservation(ctx, proto.MakeReservationArgs{
					Vault:    env.vault,
					Type:     reservation.ReusableTimesharing,
					Duration: time.Hour,
				})
			}
		}
		complete, cleanFail, partial, wasted := 0, 0, 0, 0
		rr := &scheduler.RoundRobin{}
		senv := env.ms.Env()
		for r := 0; r < rounds; r++ {
			rl, err := rr.Generate(ctx, senv, scheduler.Request{
				Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: gang}},
				Res:     spec,
			})
			if err != nil {
				cleanFail++
				continue
			}
			if strat == "reserve-all-then-start" {
				rl.ID = env.ms.Enactor.NewRequestID()
				fb := env.ms.Enactor.MakeReservations(ctx, rl)
				if !fb.Success {
					cleanFail++ // nothing started, nothing stranded
					continue
				}
				reply := env.ms.Enactor.EnactSchedule(ctx, rl.ID)
				if reply.Success {
					complete++
					for i, insts := range reply.Instances {
						for _, inst := range insts {
							_, _ = orb.Invoke[proto.Ack](ctx, env.ms.Runtime(), fb.Resolved[i].Class,
								proto.MethodDestroyInstance, proto.ObjectArgs{Object: inst})
						}
					}
				}
				_ = env.ms.Enactor.CancelReservations(ctx, rl.ID)
				continue
			}
			// Optimistic: reserve+start each mapping independently.
			var started []loid.LOID
			var heldTokens []reservation.Token
			ok := true
			for _, m := range rl.Masters[0].Mappings {
				res, err := orb.Invoke[proto.MakeReservationReply](ctx, env.ms.Runtime(), m.Host, proto.MethodMakeReservation,
					proto.MakeReservationArgs{Vault: m.Vault,
						Type:     reservation.ReusableTimesharing,
						Duration: time.Hour})
				if err != nil {
					ok = false
					break
				}
				tok := res.Token
				heldTokens = append(heldTokens, tok)
				cres, err := orb.Invoke[proto.CreateInstanceReply](ctx, env.ms.Runtime(), m.Class, proto.MethodCreateInstance,
					proto.CreateInstanceArgs{Count: 1, Placement: &proto.Placement{
						Host: m.Host, Vault: m.Vault, Token: tok}})
				if err != nil {
					ok = false
					break
				}
				started = append(started, cres.Instances...)
			}
			switch {
			case ok && len(started) == gang:
				complete++
			case len(started) > 0:
				partial++
				wasted += len(started)
			default:
				cleanFail++
			}
			for _, inst := range started {
				_, _ = orb.Invoke[proto.Ack](ctx, env.ms.Runtime(), class.LOID(),
					proto.MethodDestroyInstance, proto.ObjectArgs{Object: inst})
			}
			for i, tok := range heldTokens {
				m := rl.Masters[0].Mappings[i]
				_, _ = orb.Invoke[proto.Ack](ctx, env.ms.Runtime(), m.Host, proto.MethodCancelReservation,
					proto.TokenArgs{Token: tok})
			}
		}
		t.AddRow(strat, complete, cleanFail, partial, wasted)
		env.ms.Close()
	}
	t.Notes = append(t.Notes,
		"co-allocation never holds a partial gang: reservations all succeed or all roll back",
		"the optimist starts objects it must then kill when a later sibling is refused")
	return t
}

// A3SnapshotVsDirect ablates Collection-snapshot scheduling against
// direct per-host interrogation (DESIGN D3): the snapshot costs one
// query per decision but may be stale; direct interrogation is fresh at
// one call per host.
func A3SnapshotVsDirect(rounds, staleSteps int) *Table {
	if rounds < 1 {
		rounds = 30
	}
	if staleSteps < 1 {
		staleSteps = 5
	}
	t := &Table{
		ID:    "A3",
		Title: "Ablation D3: Collection snapshot vs direct host interrogation",
		Header: []string{"information source", "mean decision latency", "calls/decision",
			"picked truly-least-loaded"},
	}
	ctx := context.Background()
	for _, strat := range []string{"collection snapshot (stale)", "direct host queries (fresh)"} {
		fleet := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 33}, Hosts: sim.UniformSpecs(8, 4)})
		ms := fleet.MS
		rng := rand.New(rand.NewSource(33))
		correct, calls := 0, 0
		var lat []time.Duration
		for r := 0; r < rounds; r++ {
			// Loads move every round; the Collection only hears about it
			// every staleSteps rounds (a slow push period).
			for _, h := range fleet.Hosts {
				h.SetExternalLoad(rng.Float64())
			}
			if r%staleSteps == 0 {
				ms.ReassessAll(ctx)
			}
			t0 := time.Now()
			var pick loid.LOID
			if strat == "collection snapshot (stale)" {
				hosts, err := scheduler.QueryHosts(ctx, ms.Env(), "defined($host_arch)")
				calls++
				if err != nil || len(hosts) == 0 {
					continue
				}
				best := hosts[0]
				for _, h := range hosts[1:] {
					if h.Load < best.Load {
						best = h
					}
				}
				pick = best.LOID
			} else {
				bestLoad := 99.0
				for _, h := range fleet.Hosts {
					h.Reassess(ctx) // fresh read costs a reassessment...
					res, err := ms.Runtime().Call(ctx, h.LOID(), proto.MethodGetAttributes, nil)
					calls++
					if err != nil {
						continue
					}
					_ = res
					if l := h.Load(); l < bestLoad {
						bestLoad = l
						pick = h.LOID()
					}
				}
			}
			lat = append(lat, time.Since(t0))
			truly := fleet.Hosts[0]
			for _, h := range fleet.Hosts[1:] {
				if h.Load() < truly.Load() {
					truly = h
				}
			}
			if pick == truly.LOID() {
				correct++
			}
		}
		t.AddRow(strat, meanDuration(lat),
			fmt.Sprintf("%.1f", float64(calls)/float64(rounds)), pct(correct, rounds))
		ms.Close()
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("hosts push state to the Collection only every %d decision rounds", staleSteps),
		"fresh interrogation costs one call per host per decision; the Collection amortizes")
	return t
}
