package scheduler

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"legion/internal/classobj"
	"legion/internal/loid"
	"legion/internal/proto"
	"legion/internal/reservation"
	"legion/internal/resilient"
)

// ParamSpace streams a parameter-space study — thousands of short
// independent tasks of one class — through a small pool of standing
// reusable timesharing reservations (Table 2: Share+Reuse) instead of
// negotiating a fresh reservation round per task.
//
// This is the workload Table 2 justifies reusable tokens with: "a
// parameter space study in which the application wishes to run a large
// number of relatively short-lived jobs". The per-task path through the
// Wrapper costs a schedule generation plus at least one make_reservation
// RPC per task; here each pool slot pays one make_reservation up front
// and then redeems the same token for up to ReuseCap task starts, so the
// steady-state reservation-RPC cost per task is Slots/(Slots×ReuseCap) =
// 1/ReuseCap. Experiment E16 measures the win.
//
// Tasks run sequentially in submission order (determinism is the point
// for experiments; concurrency belongs to the tasks themselves, which
// the timesharing grants already permit to overlap on a host). A slot
// whose token has been redeemed ReuseCap times — or whose host starts
// refusing — is renegotiated: the old token is cancelled (freeing the
// host's multiplex slot) and a fresh reservation is made, preferring the
// currently least-loaded compatible host.
type ParamSpace struct {
	// Slots is the number of standing reservations to rotate across
	// (default 4, clamped to the number of usable hosts).
	Slots int
	// ReuseCap bounds how many task starts one token may serve before
	// the slot renegotiates (default 64). The cap keeps any single
	// host/vault pair from serving the whole study as the fleet's load
	// shifts, and bounds the blast radius of a revoked token.
	ReuseCap int
	// Duration is the reserved service interval per token (default 1h).
	Duration time.Duration
	// Priority and Tenant flow into every make_reservation call.
	Priority int
	Tenant   string
	// KeepInstances leaves task instances running; by default each
	// instance is destroyed once its task returns (short-lived jobs).
	KeepInstances bool
}

// ParamSpaceResult reports one study.
type ParamSpaceResult struct {
	// Started and Failed count tasks.
	Started int
	Failed  int
	// ReservationRPCs counts make_reservation + cancel_reservation
	// calls issued — the E16 comparison metric.
	ReservationRPCs int
	// Renewals counts slot renegotiations after the initial fill.
	Renewals int
	// PerToken maps "host#tokenID" to the number of task starts that
	// token served. No value ever exceeds ReuseCap (the reuse-cap
	// property test pins this).
	PerToken map[string]int
}

// psSlot is one standing reservation.
type psSlot struct {
	placement proto.Placement
	used      int
}

func tokenKey(t reservation.Token) string {
	return fmt.Sprintf("%v#%d", t.Host, t.ID)
}

// Run executes tasks.Count short tasks of class through the pool. For
// each task it creates one instance on the slot's reserved placement,
// calls run (nil run means "start only"), and destroys the instance
// unless KeepInstances. A slot that fails to start an instance is
// renegotiated once before the task counts as failed.
func (p ParamSpace) Run(ctx context.Context, env *Env, class *classobj.Class, tasks int, run func(ctx context.Context, inst loid.LOID, task int) error) (ParamSpaceResult, error) {
	res := ParamSpaceResult{PerToken: make(map[string]int)}
	slots := p.Slots
	if slots <= 0 {
		slots = 4
	}
	cap := p.ReuseCap
	if cap <= 0 {
		cap = 64
	}

	caller := resilient.NewCallerWith(env.RT, env.Retry, env.Breakers)

	// negotiate acquires a fresh reservation for one slot, preferring
	// the least-loaded compatible host not already carrying more of this
	// study's slots than its share.
	inUse := make(map[loid.LOID]int)
	bySlotLoad := func(a, b cand) int {
		return cmp.Compare(a.Load+float64(inUse[a.LOID]), b.Load+float64(inUse[b.LOID]))
	}
	negotiate := func(s *psSlot) error {
		view, err := candidates(ctx, env, class.LOID())
		if err != nil {
			return err
		}
		dur := p.Duration
		if dur <= 0 {
			dur = time.Hour
		}
		var lastErr error
		for _, h := range ordered(view, bySlotLoad) {
			reply, err := replyAs[proto.MakeReservationReply](caller.Call(ctx, h.LOID, proto.MethodMakeReservation, proto.MakeReservationArgs{
				Requester: env.Collection, // the study has no LOID of its own; attribute to the RM
				Vault:     h.hostVault(0).Vault,
				Type:      reservation.ReusableTimesharing,
				Duration:  dur,
				Priority:  p.Priority,
				Tenant:    p.Tenant,
			}))
			res.ReservationRPCs++
			if err != nil {
				lastErr = err
				continue
			}
			tok := reply.Token
			s.placement = proto.Placement{Host: h.LOID, Vault: tok.Vault, Token: tok}
			s.used = 0
			inUse[h.LOID]++
			return nil
		}
		return fmt.Errorf("scheduler: paramspace: no host granted a reservation: %w", lastErr)
	}

	// release cancels a slot's token so the host's timesharing multiplex
	// slot frees immediately instead of aging out.
	release := func(s *psSlot) {
		if s.placement.Host.IsNil() {
			return
		}
		_, _ = caller.Call(ctx, s.placement.Host, proto.MethodCancelReservation,
			proto.TokenArgs{Token: s.placement.Token})
		res.ReservationRPCs++
		inUse[s.placement.Host]--
		s.placement = proto.Placement{}
	}

	// Fill the pool. A study that cannot get even one slot is an error;
	// a partially filled pool proceeds (fewer standing reservations,
	// same protocol).
	pool := make([]*psSlot, 0, slots)
	var fillErr error
	for i := 0; i < slots; i++ {
		s := &psSlot{}
		if err := negotiate(s); err != nil {
			fillErr = err
			break
		}
		pool = append(pool, s)
	}
	if len(pool) == 0 {
		return res, fmt.Errorf("scheduler: paramspace: pool empty: %w", fillErr)
	}
	defer func() {
		for _, s := range pool {
			release(s)
		}
	}()

	for task := 0; task < tasks; task++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		s := pool[task%len(pool)]
		// Renegotiate a capped slot BEFORE redeeming: the cap is a hard
		// bound on starts per token, not a soft rotation hint.
		if s.used >= cap {
			release(s)
			if err := negotiate(s); err != nil {
				res.Failed++
				continue
			}
			res.Renewals++
		}
		started := false
		for attempt := 0; attempt < 2; attempt++ {
			insts, _, err := class.CreateInstance(ctx, 1, &s.placement, nil)
			if err != nil {
				// Host refused or token died (revocation, host restart):
				// renegotiate once and retry the task on the new grant.
				release(s)
				if nerr := negotiate(s); nerr != nil {
					break
				}
				res.Renewals++
				continue
			}
			s.used++
			res.PerToken[tokenKey(s.placement.Token)]++
			res.Started++
			started = true
			if run != nil {
				if rerr := run(ctx, insts[0], task); rerr != nil {
					res.Failed++
					res.Started--
				}
			}
			if !p.KeepInstances {
				_ = class.DestroyInstance(ctx, insts[0])
			}
			break
		}
		if !started {
			res.Failed++
		}
	}
	return res, nil
}
