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
// Clock primitives).
package vclock

import (
	"context"
	"sync"
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
	// AfterFunc runs f after d on its own goroutine (registered, in
	// virtual mode).
	AfterFunc(d time.Duration, f func()) Timer
	// WithDeadline derives a context that ends at the instant at on this
	// clock, or at parent's deadline if that is earlier, or when parent
	// ends, or when End is called on it. In virtual mode the deadline is
	// a scheduled event and Deadline() reports a virtual time; a
	// derivation that does not narrow the deadline of one of the clock's
	// contexts is that context, or a view of it, which ends only with it
	// (End leaves it alone). Callers End what they derive, as they would
	// call a CancelFunc, and join whatever waits under it first.
	WithDeadline(parent context.Context, at time.Time) context.Context
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

	// newTicker returns the ticker an Every loop waits on; d > 0.
	newTicker(d time.Duration) ticker
}

// Timer is a pending AfterFunc.
type Timer interface {
	// Stop cancels the pending fire; it reports whether it was pending.
	Stop() bool
}

// ticker fires repeatedly for one Every loop. Like time.Ticker, a
// ticker that falls behind does not accumulate a backlog: the next wait
// fires immediately (once), then the schedule resumes from there.
type ticker interface {
	// wait blocks until the next tick or stop; in virtual mode it parks
	// the goroutine so the barrier can advance time. Only the loop waits.
	wait() error
	// stop ends a pending wait, and every later one, with
	// context.Canceled. Idempotent.
	stop()
}

// Every runs fn every d on c until the returned stop is called, each run
// on the one goroutine it starts with c.Go. It is the one way a service
// runs periodic work, so that every such loop stops the same way:
//
//   - stop returns once the run of fn in flight, if any, has ended. It
//     waits on c, so under Virtual a stop that finds a run in flight is
//     called from a goroutine c runs.
//   - No run starts after stop returns.
//   - A stop that finds no run in flight never parks, so it may be called
//     from outside Virtual.Run.
//   - stop must not be called from inside fn, which would wait on itself.
//
// stop is idempotent.
func Every(c Clock, d time.Duration, fn func()) (stop func()) {
	if d <= 0 {
		panic("vclock: non-positive Every period")
	}
	t := c.newTicker(d)
	l := &periodic{runs: c.NewGroup()}
	c.Go(func() {
		for t.wait() == nil && l.begin() {
			fn()
			l.runs.Done()
		}
	})
	return func() {
		l.mu.Lock()
		l.stopped = true
		l.mu.Unlock()
		t.stop()
		_ = l.runs.Wait(context.Background())
	}
}

// periodic is what an Every loop's stop reads: runs counts the run in
// flight, and begin counts one in only while stop has not been called.
type periodic struct {
	runs    Group
	mu      sync.Mutex
	stopped bool
}

func (l *periodic) begin() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.stopped {
		l.runs.Add(1)
	}
	return !l.stopped
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

// End ends ctx with context.Canceled if some Clock's WithDeadline
// returned it as a context of its own, and does nothing to any other
// context: not to a view or a parent it returned for a deadline that did
// not narrow, not to a span or a context.WithValue over one (their end
// is their parent's), nor to a stdlib context. It is idempotent and
// rewrites no end already reached: a wall deadline that passed
// unobserved still reads DeadlineExceeded. It is a function and not a
// CancelFunc because a closure per deadline is a second object per
// deadline.
func End(ctx context.Context) {
	switch c := ctx.(type) {
	case *vctx:
		c.end()
	case *wallCtx:
		c.cancel()
	}
}

// Default returns c, or Wall when c is nil — config structs carry a
// nil Clock to mean "real time".
func Default(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}
