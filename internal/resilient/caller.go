package resilient

import (
	"context"
	"fmt"

	"legion/internal/loid"
	"legion/internal/orb"
)

// Invoker is the calling surface the resilience layer wraps —
// *orb.Runtime satisfies it.
type Invoker interface {
	Call(ctx context.Context, target loid.LOID, method string, arg any) (any, error)
}

// Caller makes metasystem calls through a retry policy and per-endpoint
// circuit breakers. Endpoints are keyed by target LOID: in the paper's
// model the LOID is the stable name of the Host/Vault/Collection being
// negotiated with, regardless of which connection carries the call.
// Safe for concurrent use.
type Caller struct {
	inv      Invoker
	policy   Policy
	breakers *BreakerSet // may be nil: retry without breakers
}

// NewCaller wraps inv with the policy and a breaker set (nil disables
// breakers); several components may share one set to pool endpoint
// health knowledge.
func NewCaller(inv Invoker, p Policy, breakers *BreakerSet) *Caller {
	return &Caller{inv: inv, policy: p, breakers: breakers}
}

// Policy returns the caller's retry policy.
func (c *Caller) Policy() Policy { return c.policy }

// Invoke calls method on target with arg under the retry policy p
// (c.Policy(), or a variant of it: one attempt for a non-idempotent
// operation whose duplicate would leak real work), and types the reply
// as R. Every attempt consults and informs the target's breaker; an
// open breaker fails the call immediately with ErrCircuitOpen
// (classified permanent, so callers fall back instead of spinning).
// Over an *orb.Runtime each attempt is an orb.Invoke, so a local typed
// method runs with neither value boxed.
func Invoke[R, A any](ctx context.Context, c *Caller, p Policy, target loid.LOID, method string, arg A) (R, error) {
	var br *Breaker
	if c.breakers != nil {
		br = c.breakers.ForLOID(target)
	}
	var res R
	err := p.Do(ctx, func(ctx context.Context) error {
		if br != nil {
			if err := br.Allow(); err != nil {
				return fmt.Errorf("%w (target %v, method %s)", err, target, method)
			}
		}
		var err error
		if rt, ok := c.inv.(*orb.Runtime); ok {
			res, err = orb.Invoke[R](ctx, rt, target, method, arg)
		} else {
			res, err = orb.As[R](c.inv.Call(ctx, target, method, arg))
		}
		if br != nil {
			br.Record(err)
		}
		return err
	})
	if err != nil {
		var zero R
		return zero, err
	}
	return res, nil
}
