package scheduler

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/resilient"
	"legion/internal/sched"
)

// isRefusal reports whether err is a typed refusal — an admission shed
// or a deadline expiry caught before dispatch — for which the remote
// method is guaranteed not to have run. Cross-runtime calls flatten
// sentinel identity into a RemoteError message, so the check falls back
// to the sentinel text (the same convention resilient.Classify uses).
func isRefusal(err error) bool {
	return proto.IsOverload(err) || errors.Is(err, orb.ErrDeadlineExpired) ||
		strings.Contains(err.Error(), orb.ErrDeadlineExpired.Error())
}

// wrapperIDs mints request IDs for Wrapper-driven episodes. It starts
// high so IDs never collide with an Enactor's own NewRequestID sequence
// in the same process.
var wrapperIDs atomic.Uint64

func init() { wrapperIDs.Store(1 << 32) }

// Wrapper drives a Generator through the Enactor with retry limits — the
// Figure 9 IRS_Wrapper protocol, generalized to any Generator:
//
//	for i in 1 to SchedTryLimit:
//	    sched = Gen_Placement(...)
//	    for j in 1 to EnactTryLimit:
//	        if make_reservations(sched) succeeded:
//	            if enact_placement(sched) succeeded: return success
//	return failure
//
// Transport faults are handled below the protocol loops: each Enactor
// call runs under the Env's retry policy and shared breakers, so a
// dropped connection is redialed and retried (with a fresh request ID
// per reservation attempt — see below) without burning a Figure 9
// attempt, while permanent refusals fall through to the protocol's own
// regenerate / give-up logic.
type Wrapper struct {
	// SchedTryLimit bounds schedule generations; default 3.
	SchedTryLimit int
	// EnactTryLimit bounds reservation+enactment attempts per generated
	// schedule; default 2.
	EnactTryLimit int
}

// Outcome reports one Wrapper run.
type Outcome struct {
	// Success is true when some schedule was reserved and enacted.
	Success bool
	// RequestID identifies the winning episode at the Enactor.
	RequestID uint64
	// Feedback is the winning (or last failing) reservation feedback.
	Feedback sched.Feedback
	// Instances are the created objects per resolved mapping.
	Instances [][]loid.LOID
	// SchedAttempts and EnactAttempts count work performed.
	SchedAttempts int
	EnactAttempts int
	// TransportRetries counts Enactor calls repeated below the protocol
	// after a retryable transport fault.
	TransportRetries int
}

// Run executes the retry protocol, calling the Enactor through the orb
// (so the Enactor may be remote or replaced — Figure 2's layering
// freedom).
func (w Wrapper) Run(ctx context.Context, env *Env, enactorL loid.LOID, gen Generator, req Request) (Outcome, error) {
	schedLimit := w.SchedTryLimit
	if schedLimit <= 0 {
		schedLimit = 3
	}
	enactLimit := w.EnactTryLimit
	if enactLimit <= 0 {
		enactLimit = 2
	}
	caller := resilient.NewCallerWith(env.RT, env.Retry, env.Breakers)

	// cancelEpisode best-effort releases one episode's reservations on a
	// context detached from the caller's: the episodes worth cancelling
	// are exactly the ones abandoned because the caller's deadline died,
	// and a cancel under that dead context could never land. An episode
	// the Enactor never recorded answers ErrUnknownRequest — harmless.
	// Cleanup runs breaker-free: a faulted cancel is bookkeeping, not a
	// verdict on the Enactor's health, and letting it strike the shared
	// breaker would fail the *placement* path for hygiene's sake. The
	// cancel is idempotent (a repeat answers ErrUnknownRequest), so it
	// retries transport faults under the normal policy.
	canceller := resilient.NewCallerWith(env.RT, env.Retry, nil)
	cancelEpisode := func(id uint64) {
		cctx, cancel := env.RT.Clock().WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		_, _ = canceller.Call(cctx, enactorL, proto.MethodCancelReservations,
			proto.CancelReservationsArgs{RequestID: id})
	}

	var out Outcome
	var lastErr error
	for i := 0; i < schedLimit; i++ {
		out.SchedAttempts++
		request, err := gen.Generate(ctx, env, req)
		if err != nil {
			lastErr = err
			continue // transient resource shortage: regenerate
		}
		for j := 0; j < enactLimit; j++ {
			out.EnactAttempts++
			// make_reservations is retried with a FRESH request ID per
			// transport attempt: if a success reply was lost, the orphan
			// episode's unconfirmed reservations are reclaimed by the
			// Hosts' confirmation timeouts, whereas reusing the ID would
			// silently overwrite held state at the Enactor.
			var fb sched.Feedback
			var staleIDs []uint64
			rerr := env.Retry.Do(ctx, func(actx context.Context) error {
				request.ID = wrapperIDs.Add(1)
				reply, cerr := replyAs[proto.FeedbackReply](caller.CallOnce(actx, enactorL, proto.MethodMakeReservations,
					proto.MakeReservationsArgs{Request: request, RequesterDomain: env.RT.Domain()}))
				if cerr != nil {
					// The attempt may have succeeded server-side with the
					// reply lost — its episode (never to be enacted: the
					// next attempt mints a fresh ID) would strand its
					// unconfirmed grants until the hosts' confirmation
					// timeouts. Remember the ID and cancel it below —
					// unless the fault provably fired before dispatch
					// (NeverReached), in which case no episode exists and
					// a cancel would be pure extra load on a link that is
					// already misbehaving. A reply of the wrong type lands
					// here too: whatever answered may be holding grants.
					if !resilient.NeverReached(cerr) {
						staleIDs = append(staleIDs, request.ID)
					}
					out.TransportRetries++
					return cerr
				}
				fb = reply.Feedback
				return nil
			})
			for _, id := range staleIDs {
				cancelEpisode(id)
			}
			if rerr != nil {
				lastErr = rerr
				if errors.Is(rerr, resilient.ErrCircuitOpen) {
					// The Enactor endpoint itself is down; neither this
					// schedule nor a regenerated one can proceed.
					return out, fmt.Errorf("%w (after %d schedules, %d enact attempts): %v",
						ErrExhausted, out.SchedAttempts, out.EnactAttempts, rerr)
				}
				continue
			}
			out.Feedback = fb
			if !fb.Success {
				lastErr = fmt.Errorf("scheduler: %s: %s", fb.Reason, fb.Detail)
				// Malformed schedules will not improve with retries of
				// the same schedule; resources might.
				if fb.Reason == sched.FailureMalformed {
					break
				}
				continue
			}
			// enact_schedule is idempotent at the Enactor (a retried
			// success returns the same instances), so the same request
			// ID is safely retried through the resilient caller.
			reply, err := replyAs[proto.EnactReply](caller.Call(ctx, enactorL, proto.MethodEnactSchedule,
				proto.EnactScheduleArgs{RequestID: request.ID}))
			if err != nil {
				lastErr = err
				// A refusal (admission shed, deadline expired before
				// dispatch) guarantees the enactment never ran, so the
				// held reservations can be released immediately instead
				// of aging out through the confirmation timeouts. Other
				// errors are ambiguous — the enactment may have
				// completed with the reply lost or mistyped — and
				// cancelling could strand running instances, so those are
				// left to the Enactor's TTL sweep and the hosts' reapers.
				if isRefusal(err) {
					cancelEpisode(request.ID)
				}
				continue
			}
			if reply.Success {
				out.Success = true
				out.RequestID = request.ID
				out.Instances = reply.Instances
				return out, nil
			}
			lastErr = fmt.Errorf("scheduler: enactment failed: %s", reply.Detail)
		}
	}
	if lastErr == nil {
		lastErr = ErrExhausted
	}
	return out, fmt.Errorf("%w (after %d schedules, %d enact attempts): %v",
		ErrExhausted, out.SchedAttempts, out.EnactAttempts, lastErr)
}
