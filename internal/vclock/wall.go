package vclock

import (
	"context"
	"sync"
	"time"
)

// Wall is the real-time Clock: thin wrappers over package time, and a
// deadline context that arms nothing until it is waited on. It is the
// default everywhere a Clock is not configured.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time                  { return time.Now() }
func (wallClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (wallClock) Until(t time.Time) time.Duration { return time.Until(t) }

func (wallClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (wallClock) AfterFunc(d time.Duration, f func()) Timer {
	return wallTimer{t: time.AfterFunc(d, f)}
}

func (wallClock) NewTimer(d time.Duration) Timer {
	return wallTimer{t: time.NewTimer(d)}
}

func (wallClock) NewTicker(d time.Duration) Ticker {
	return &wallTicker{t: time.NewTicker(d)}
}

func (wallClock) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return WithDeadline(parent, time.Now().Add(d))
}

// WithDeadline derives a context that ends at the wall-clock instant at,
// or at parent's deadline if that is earlier, or when parent ends or
// cancel is called. It behaves as context.WithDeadline does, but costs
// what it is used for: the deadline is a field, and Err reads it against
// the time of day; nothing is armed until Done() — the timer, the
// channel and the link to a cancellable parent are made by the first
// call. A call that runs in this process never makes it; a call that
// waits on a socket does.
func WithDeadline(parent context.Context, at time.Time) (context.Context, context.CancelFunc) {
	if pd, ok := parent.Deadline(); ok && pd.Before(at) {
		at = pd
	}
	c := &wallCtx{Context: parent, deadline: at}
	return c, c.cancel
}

type wallCtx struct {
	context.Context // parent: values, and an end to inherit
	deadline        time.Time

	mu   sync.Mutex
	err  error         // set once, by end
	done chan struct{} // made by the first Done, with the two below
	// timer ends the context at the deadline and unlink withdraws it from
	// the parent's notice; neither is made if it had already ended by then.
	timer  *time.Timer
	unlink func() bool
	// Functions to start when the context ends (AfterFunc), keyed by
	// their own address so that each stop finds its own.
	funcs map[*func()]struct{}
}

func (c *wallCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// Err is the error the context ended with: its own, else the parent's,
// else DeadlineExceeded once the deadline has passed. The first one seen
// is kept, so a later cancel does not change the answer.
func (c *wallCtx) Err() error {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if err = c.Context.Err(); err == nil {
		if time.Now().Before(c.deadline) {
			return nil
		}
		err = context.DeadlineExceeded
	}
	return c.end(err)
}

func (c *wallCtx) Done() <-chan struct{} {
	c.mu.Lock()
	done := c.done
	c.mu.Unlock()
	if done != nil {
		return done
	}
	// An end that nobody has looked at yet is seen now, so that the
	// channel of a context already over is closed when it is returned.
	c.Err()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
		} else {
			c.timer = time.AfterFunc(time.Until(c.deadline), c.expire)
			if c.Context.Done() != nil {
				c.unlink = context.AfterFunc(c.Context, c.parentEnded)
			}
		}
	}
	return c.done
}

// AfterFunc arranges for f to run in its own goroutine once the context
// has ended; stop withdraws it and reports whether it did so before f
// was started. It is the method context.AfterFunc, and a context derived
// from this one by package context, look for, so that neither parks a
// goroutine to watch Done.
func (c *wallCtx) AfterFunc(f func()) (stop func() bool) {
	c.Done() // somebody waits on the end now
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		go f()
		return func() bool { return false }
	}
	if c.funcs == nil {
		c.funcs = make(map[*func()]struct{})
	}
	c.funcs[&f] = struct{}{}
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, waiting := c.funcs[&f]
		delete(c.funcs, &f)
		return waiting
	}
}

func (c *wallCtx) cancel() {
	// Through Err, so that a deadline which passed unobserved is not
	// overwritten.
	if c.Err() == nil {
		c.end(context.Canceled)
	}
}

func (c *wallCtx) expire()      { c.end(context.DeadlineExceeded) }
func (c *wallCtx) parentEnded() { c.end(c.Context.Err()) }

// end settles the context's error, the first caller's winning, and
// returns it.
func (c *wallCtx) end(err error) error {
	c.mu.Lock()
	if c.err != nil {
		err = c.err
		c.mu.Unlock()
		return err
	}
	c.err = err
	if c.done != nil {
		close(c.done)
		c.timer.Stop()
		if c.unlink != nil {
			c.unlink()
		}
	}
	funcs := c.funcs
	c.funcs = nil
	c.mu.Unlock()
	for f := range funcs {
		go (*f)()
	}
	return err
}

func (wallClock) Go(f func()) { go f() }

func (wallClock) NewGate() Gate   { return &wallGate{} }
func (wallClock) NewGroup() Group { return &wallGroup{} }

// wallTimer adapts *time.Timer.
type wallTimer struct{ t *time.Timer }

func (w wallTimer) C() <-chan time.Time        { return w.t.C }
func (w wallTimer) Stop() bool                 { return w.t.Stop() }
func (w wallTimer) Reset(d time.Duration) bool { return w.t.Reset(d) }

// wallTicker adapts *time.Ticker with a cancellable Wait.
type wallTicker struct{ t *time.Ticker }

func (w *wallTicker) Wait(ctx context.Context) error {
	select {
	case <-w.t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (w *wallTicker) Stop() { w.t.Stop() }

// wallGate is the real-time Gate: a token count plus a one-slot wake
// channel (single waiter by contract).
type wallGate struct {
	mu     sync.Mutex
	tokens int
	wake   chan struct{}
}

func (g *wallGate) Signal() {
	g.mu.Lock()
	g.tokens++
	wake := g.wake
	g.mu.Unlock()
	if wake != nil {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

func (g *wallGate) Wait(ctx context.Context) error {
	g.mu.Lock()
	if g.wake == nil {
		g.wake = make(chan struct{}, 1)
	}
	wake := g.wake
	g.mu.Unlock()
	for {
		g.mu.Lock()
		if g.tokens > 0 {
			g.tokens--
			g.mu.Unlock()
			return nil
		}
		g.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// wallGroup is the real-time Group: counter plus broadcast channels.
type wallGroup struct {
	mu      sync.Mutex
	n       int
	waiters []chan struct{}
}

func (g *wallGroup) Add(n int) {
	g.mu.Lock()
	g.n += n
	if g.n < 0 {
		g.mu.Unlock()
		panic("vclock: negative Group counter")
	}
	done := g.n == 0
	var ws []chan struct{}
	if done {
		ws, g.waiters = g.waiters, nil
	}
	g.mu.Unlock()
	for _, ch := range ws {
		close(ch)
	}
}

func (g *wallGroup) Done() { g.Add(-1) }

func (g *wallGroup) Wait(ctx context.Context) error {
	g.mu.Lock()
	if g.n == 0 {
		g.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	g.waiters = append(g.waiters, ch)
	g.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
