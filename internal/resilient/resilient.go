// Package resilient is the failure-tolerance substrate for metasystem
// method calls.
//
// The paper requires that "our Legion objects are built to accommodate
// failure at any step in the scheduling process". In a wide-area
// metasystem the negotiation substrate itself — the orb calls between
// Scheduler, Enactor, Collection, Hosts and Vaults — is the component
// that fails most often: connections drop, sites partition, hosts hang.
// This package provides the three mechanisms the rest of the RMI uses to
// degrade gracefully instead of failing a whole negotiation on the first
// dropped packet:
//
//   - an error classifier (Classify) separating retryable transport
//     faults (injected faults, connection loss, timeouts) from permanent
//     refusals (placement policy, reservation conflicts, unbound
//     objects) that retrying cannot fix;
//   - a retry Policy with exponential backoff, jitter, and a per-call
//     deadline budget (Do);
//   - a per-endpoint circuit Breaker (closed → open → half-open, see
//     breaker.go) so a dead Host is failed fast after a few strikes
//     instead of absorbing a full retry budget on every call.
//
// Caller (caller.go) composes all three over any Invoker — in practice
// an *orb.Runtime — and is what the Enactor, Scheduler Wrapper, and Data
// Collection Daemon use for their negotiation calls.
package resilient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"legion/internal/host"
	"legion/internal/orb"
	"legion/internal/reservation"
	"legion/internal/vclock"
)

// Class is the classifier's verdict on a call error.
type Class int

// Classification outcomes.
const (
	// ClassOK: no error.
	ClassOK Class = iota
	// ClassRetryable: a transport-level fault; the same call may succeed
	// if repeated (possibly over a fresh connection).
	ClassRetryable
	// ClassPermanent: a definitive refusal or a logic error; retrying the
	// same call against the same endpoint cannot succeed.
	ClassPermanent
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassRetryable:
		return "retryable"
	default:
		return "permanent"
	}
}

// Classify sorts a call error into retryable transport faults versus
// permanent refusals, by the error's identity alone. Unknown errors
// classify as permanent: an error the callee answered with is final
// whatever its text says, and blindly retrying a call whose failure mode
// we cannot name risks duplicating non-idempotent work (e.g.
// double-granting a reservation), while treating it as final merely
// falls back to a variant schedule.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, orb.ErrInjectedFault):
		return ClassRetryable
	case errors.Is(err, ErrCircuitOpen):
		return ClassPermanent
	case errors.Is(err, context.DeadlineExceeded):
		// A per-attempt deadline: the endpoint was slow, not wrong.
		return ClassRetryable
	case errors.Is(err, context.Canceled):
		return ClassPermanent
	case errors.Is(err, orb.ErrNotBound), errors.Is(err, orb.ErrNoMethod):
		return ClassPermanent
	case errors.Is(err, orb.ErrOverload), errors.Is(err, orb.ErrDeadlineExpired):
		// A shed (by the orb server's limiter, an admission gate or a
		// Host's watermark) or an expired-on-arrival frame is a refusal
		// by a live server: retrying the same call feeds the overload.
		// Callers fall through to their protocol-level logic
		// (regenerate, back off) and breakers never count it as a strike.
		return ClassPermanent
	case errors.Is(err, host.ErrPolicy), errors.Is(err, host.ErrVaultUnreachable):
		return ClassPermanent
	case errors.Is(err, reservation.ErrConflict), errors.Is(err, reservation.ErrInvalidToken),
		errors.Is(err, reservation.ErrExpired), errors.Is(err, reservation.ErrBadRequest):
		return ClassPermanent
	case errors.Is(err, orb.ErrUnreachable), errors.Is(err, orb.ErrConnLost):
		// The connection, not the target object, failed.
		return ClassRetryable
	}
	return ClassPermanent
}

// NeverReached reports whether the error guarantees the call was aborted
// before it reached the target object — fault injection, an open
// breaker, or a failed dial. Such calls are safe to retry even when the
// operation is not idempotent (nothing happened on the far side); the
// Enactor uses this predicate for create_instance.
func NeverReached(err error) bool {
	return errors.Is(err, orb.ErrInjectedFault) || errors.Is(err, ErrCircuitOpen) ||
		errors.Is(err, orb.ErrUnreachable)
}

// Policy parameterizes retries for one logical call.
type Policy struct {
	// MaxAttempts bounds total attempts (first try included); <=0 means 4.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; <=0 means 5ms.
	// The backoff doubles per attempt up to 64*BaseDelay.
	BaseDelay time.Duration
	// Jitter is the fraction of the delay randomized (0..1); zero means
	// 0.5, negative disables jitter (deterministic backoff).
	Jitter float64
	// Budget bounds the whole call — attempts plus backoffs — with a
	// deadline; 0 imposes none beyond the caller's ctx.
	Budget time.Duration
	// AttemptTimeout bounds each individual attempt; 0 imposes none
	// beyond the (budgeted) ctx.
	AttemptTimeout time.Duration
	// Retryable overrides Classify as the retry predicate; nil uses
	// Classify(err) == ClassRetryable.
	Retryable func(error) bool
	// Clock supplies backoff waits and budget/attempt deadlines; nil
	// means the wall clock. Virtual-time runs set it so retries park on
	// the discrete-event clock.
	Clock vclock.Clock
	// JitterRand, when non-nil, replaces the process-global jitter RNG
	// so same-process replays draw an independent, seedable stream.
	// Callers must not share one *rand.Rand across policies without
	// their own locking; the policy serializes its own draws.
	JitterRand *LockedRand
}

// LockedRand is a mutex-guarded rand.Rand for policy-scoped jitter.
type LockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewLockedRand seeds a policy-scoped jitter source.
func NewLockedRand(seed int64) *LockedRand {
	return &LockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (r *LockedRand) float64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

func (p Policy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

func (p Policy) retryable(err error) bool {
	if p.Retryable != nil {
		return p.Retryable(err)
	}
	return Classify(err) == ClassRetryable
}

// jitterRng randomizes backoff; guarded because retries run on many
// goroutines (the Enactor negotiates mappings concurrently under test).
var (
	jitterMu  sync.Mutex
	jitterRng = rand.New(rand.NewSource(42))
)

// maxDoublings caps the backoff, which doubles per attempt, at 64 times
// the base delay.
const maxDoublings = 6

// delay computes the backoff before attempt n (n=1 is the delay after
// the first failure).
func (p Policy) delay(n int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	d := float64(base << min(n-1, maxDoublings))
	jit := p.Jitter
	if jit == 0 {
		jit = 0.5
	} else if jit < 0 {
		jit = 0
	}
	if jit > 1 {
		jit = 1
	}
	if jit > 0 {
		var f float64
		if p.JitterRand != nil {
			f = p.JitterRand.float64()
		} else {
			jitterMu.Lock()
			f = jitterRng.Float64()
			jitterMu.Unlock()
		}
		d = d * (1 - jit + jit*f) // uniform in [d*(1-jit), d]
	}
	return time.Duration(d)
}

// Do runs op under the policy: attempts are repeated with backoff while
// the error stays retryable, the budget deadline holds, and attempts
// remain. The final error is returned annotated with the attempt count.
//
// Nearly every call succeeds first time, so the first attempt derives as
// few contexts as its deadline needs. When 0 < AttemptTimeout < Budget
// the attempt's own deadline is the tighter of the two, and the budget's
// context — an object, and an event on the virtual clock — is derived
// only once a retry is in sight, at the instant it would have had. The
// attempt's context is Ended when the attempt returns, the budget's
// when Do does. The condition is strict: at AttemptTimeout ==
// Budget the two deadlines are one instant, the budget's is scheduled
// first, and the attempt must go on seeing Canceled from it, which is
// final, rather than a DeadlineExceeded of its own, which is retried.
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	clock := vclock.Default(p.Clock)
	var budgetAt time.Time // set while the budget's context is still owed
	if p.AttemptTimeout > 0 && p.AttemptTimeout < p.Budget {
		budgetAt = clock.Now().Add(p.Budget)
	} else if p.Budget > 0 {
		ctx = clock.WithDeadline(ctx, clock.Now().Add(p.Budget))
		defer vclock.End(ctx)
	}
	var err error
	attempts := p.attempts()
	for n := 1; ; n++ {
		if p.AttemptTimeout > 0 {
			actx := clock.WithDeadline(ctx, clock.Now().Add(p.AttemptTimeout))
			err = op(actx)
			vclock.End(actx)
		} else {
			err = op(ctx)
		}
		if err == nil {
			return nil
		}
		if !p.retryable(err) {
			return err
		}
		if n >= attempts {
			return fmt.Errorf("resilient: %d attempts exhausted: %w", attempts, err)
		}
		spent := false
		if !budgetAt.IsZero() {
			if clock.Until(budgetAt) > 0 {
				ctx = clock.WithDeadline(ctx, budgetAt)
				defer vclock.End(ctx)
			} else {
				spent = true // an op deaf to its context outran the whole budget
			}
			budgetAt = time.Time{}
		}
		if spent || ctx.Err() != nil || clock.Sleep(ctx, p.delay(n)) != nil {
			return fmt.Errorf("resilient: budget exhausted after %d attempts: %w", n, err)
		}
	}
}
