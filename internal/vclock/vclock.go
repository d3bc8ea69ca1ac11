// Package vclock abstracts time for the Legion reproduction: every
// subsystem that sleeps, backs off, ticks, or arms a deadline does so
// through a Clock, so the same production code runs against the wall
// clock (Wall) or against a deterministic discrete-event clock
// (Virtual) that advances only when every participating goroutine is
// parked.
//
// The virtual mode exists for scale and determinism (ROADMAP item 2,
// GridSim-style simulation): one process can push 100k+ hosts and a
// million placement requests through the real Scheduler → Collection →
// Enactor → Host pipeline in virtual time, and chaos storms replay
// bit-identically from a seed because nothing waits on the scheduler's
// whims — see DESIGN.md §13 for the architecture and the rules
// virtual-mode code must follow (spawn via Clock.Go, block only through
// Clock primitives, Parallelism=1).
package vclock

import (
	"context"
	"time"
)

// Clock is the time source and parking substrate. Implementations:
// Wall (real time) and *Virtual (discrete-event time).
type Clock interface {
	// Now returns the current (real or virtual) time.
	Now() time.Time
	// Since is Now().Sub(t).
	Since(t time.Time) time.Duration
	// Until is t.Sub(Now()).
	Until(t time.Time) time.Duration
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case. A non-positive d returns immediately.
	Sleep(ctx context.Context, d time.Duration) error
	// After returns a channel delivering the clock's time after d. In
	// virtual mode only the Advance driver (or an unparked goroutine)
	// may select on it — a registered goroutine blocking on a bare
	// channel stalls the barrier; registered code uses Sleep.
	After(d time.Duration) <-chan time.Time
	// AfterFunc runs f after d on its own goroutine (registered, in
	// virtual mode). The returned Timer has a nil C.
	AfterFunc(d time.Duration, f func()) Timer
	// NewTimer returns a one-shot Timer delivering on C after d.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a Ticker with the given period. Virtual-safe
	// consumers loop on Wait rather than selecting on a channel.
	NewTicker(d time.Duration) Ticker
	// WithTimeout derives a context whose deadline is d from now on
	// this clock. In virtual mode the deadline is a scheduled event and
	// Deadline() reports a virtual time.
	WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc)
	// Go spawns f as a participating goroutine. In virtual mode the
	// goroutine is registered with the barrier: virtual time cannot
	// advance while it is runnable. All goroutines that touch this
	// clock's parking primitives MUST be spawned through Go (or be the
	// root function of Virtual.Run).
	Go(f func())
	// NewGate returns a single-waiter wakeup gate (see Gate).
	NewGate() Gate
	// NewGroup returns a cancellable WaitGroup analogue (see Group).
	NewGroup() Group
}

// Timer is a one-shot timer. Stop and Reset report whether the timer
// was still pending, with time.Timer semantics.
type Timer interface {
	// C delivers the fire time; nil for AfterFunc timers.
	C() <-chan time.Time
	// Stop cancels the pending fire; it reports whether it was pending.
	Stop() bool
	// Reset re-arms the timer for d from now; it reports whether the
	// timer was still pending.
	Reset(d time.Duration) bool
}

// Ticker fires repeatedly. Consumers call Wait in a loop; in virtual
// mode Wait parks the goroutine so the barrier can advance time.
// Like time.Ticker, a Ticker that falls behind does not accumulate a
// backlog: the next Wait fires immediately (once), then the schedule
// resumes from there.
type Ticker interface {
	// Wait blocks until the next tick or ctx cancellation.
	Wait(ctx context.Context) error
	// Stop releases the ticker; pending Waits return via their ctx.
	Stop()
}

// Gate is a single-waiter handoff: Signal deposits a token (never
// blocking), Wait consumes one or parks until one arrives. It replaces
// the `ch := make(chan struct{}, 1); ch <- x / <-ch` idiom on paths a
// virtual-mode goroutine blocks on: parking through the Gate releases
// the barrier, and a Signal from a registered goroutine hands its busy
// credit to the waiter so execution stays serialized. At most one
// goroutine may Wait at a time.
type Gate interface {
	Signal()
	Wait(ctx context.Context) error
}

// Group is a WaitGroup whose Wait is context-cancellable and, in
// virtual mode, barrier-aware. The chaos storm uses it to join its
// in-flight arrival goroutines without stalling virtual time, and the
// scheduler's HostCache to hold a herd of callers for one fetch. Any
// number may Wait; in virtual mode they are released one at a time, in
// the order they began to wait.
type Group interface {
	Add(n int)
	Done()
	Wait(ctx context.Context) error
}

// Default returns c, or Wall when c is nil — config structs carry a
// nil Clock to mean "real time".
func Default(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}
