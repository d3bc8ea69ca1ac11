package vclock

import (
	"context"
	"sync/atomic"
	"time"
)

// vctx is a context whose deadline lives on the virtual clock: expiry
// is a scheduled event, so code that checks Deadline()/Err() or parks
// against the context sees virtual time, not wall time. Cancellation
// of parked waiters is granted under the clock mutex, keeping wakeups
// inside the serialized event order.
//
// The deadline event is armed when the context is derived, not when
// somebody first waits on it: its place in the (time, seq) order is part
// of what a seed replays. The Done channel is no part of that, and is
// made by the first Done().
type vctx struct {
	context.Context // parent (values, parent Done as fallback)

	v        *Virtual
	deadline time.Time
	stop     atomic.Bool // set by the first End
	ev       event       // the deadline

	// The rest is guarded by v.mu.
	done chan struct{}
	err  error
	// Parked waiters and derived contexts, each in arrival order; the
	// lists run through the members, which unlink as they wake or end.
	firstWaiter, lastWaiter *waiter
	firstChild, lastChild   *vctx
	parent                  *vctx // whose child list this context is on
	prev, next              *vctx // its neighbours there
}

// closedChan is the Done channel of a context that ended before anyone
// asked for one.
var closedChan = make(chan struct{})

func init() { close(closedChan) }

// vctxKey lets own find the nearest vctx ancestor through stdlib wrappers
// (context.WithValue from tracing, etc.) that would otherwise hide it
// from a direct type assertion.
type vctxKey struct{}

func (c *vctx) Value(key any) any {
	if _, ok := key.(vctxKey); ok {
		return c
	}
	return c.Context.Value(key)
}

// vview is what WithDeadline derives from one of the clock's contexts,
// or from a view of one, at an instant no earlier than its deadline: the
// same context seen through another type, so that deriving it costs
// neither an object nor an event. A child there would have the parent's
// deadline, Done and values, and its own deadline event, later in the
// (time, seq) order than the parent's, could never fire first: the
// parent's end would cascade to it as Canceled. A view answers the same
// way: its Err is Canceled once the parent has ended, however the parent
// ended, and a wait under it that the parent's end wakes returns
// Canceled (own reports the view, and each wait translates). End on a
// view does nothing: the view ends when its parent does.
type vview vctx

func (c *vview) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *vview) Done() <-chan struct{} { return (*vctx)(c).Done() }

func (c *vview) Err() error {
	c.v.mu.Lock()
	defer c.v.mu.Unlock()
	return viewErr(c.err, true)
}

// Value answers vctxKey with the view, so that own, looking through a
// stdlib wrapper, knows it found one; every other key as the parent does.
func (c *vview) Value(key any) any {
	if _, ok := key.(vctxKey); ok {
		return c
	}
	return c.Context.Value(key)
}

// viewErr is the error a wait under a context returns, given the error
// its waiter was woken with and whether own found a view behind the
// context: the end of a view's parent reaches the view as Canceled.
func viewErr(err error, view bool) error {
	if err != nil && view {
		return context.Canceled
	}
	return err
}

// valueContext is a context that adds values to its parent and nothing
// else: its Deadline, Done and Err are those of ValueParent. A clock
// looks through one to the context it wraps without asking it for a Done
// channel, which would make one for a clock context that had none.
type valueContext interface {
	context.Context
	ValueParent() context.Context
}

// own returns the context of this clock that ctx is, or that ctx wraps in
// layers which add values and nothing else (a telemetry span on every
// traced path); nil if there is none. view reports that what it found is
// a view of the context it returns, whose end a wait must report as
// Canceled. A valueContext says so itself. Of any other wrapper, if the
// nearest clock ancestor's done channel IS ctx's done channel, no
// cancellable stdlib context sits between them, so treating ctx as the
// ancestor is exact — and keeps deriving from it, and waiting under it,
// on the synchronous serialized path instead of a watcher goroutine or a
// select. It may take v.mu, so callers look before they lock.
func (v *Virtual) own(ctx context.Context) (c *vctx, view bool) {
	for {
		w, ok := ctx.(valueContext)
		if !ok {
			break
		}
		ctx = w.ValueParent()
	}
	c, view = clockContext(ctx)
	if c == nil {
		done := ctx.Done()
		if done == nil { // Background, WithoutCancel: nothing to be woken by
			return nil, false
		}
		if c, view = clockContext(ctx.Value(vctxKey{})); c == nil || done != c.Done() {
			return nil, false
		}
	}
	if c.v != v {
		return nil, false
	}
	return c, view
}

// clockContext returns x as one of the clock's contexts, and whether x
// is a view of it; nil if x is neither.
func clockContext(x any) (*vctx, bool) {
	switch c := x.(type) {
	case *vctx:
		return c, false
	case *vview:
		return (*vctx)(c), true
	}
	return nil, false
}

// WithDeadline derives a context whose deadline is the virtual instant
// at. Parent cancellation propagates: synchronously (serialized) for
// parents created by this clock, via a watcher goroutine for arbitrary
// cancellable parents.
//
// A derivation that does not narrow a clock context's deadline makes
// nothing: under a view, or value layers over one, it returns parent,
// which already ends as a view does; under a live clock context itself
// it returns that context's view. Under value layers over a clock
// context it still makes a child: returning the layers would report the
// context's own DeadlineExceeded where a child reports Canceled.
func (v *Virtual) WithDeadline(parent context.Context, at time.Time) context.Context {
	p, view := v.own(parent)
	if view && !at.Before(p.deadline) {
		return parent
	}
	var perr error
	var pdone <-chan struct{}
	if p == nil {
		// Safe to ask outside v.mu only; one of the clock's own contexts is
		// read under the lock below instead (its Err() would re-lock v.mu).
		perr = parent.Err()
		pdone = parent.Done()
	}
	v.mu.Lock()
	if p != nil {
		perr = viewErr(p.err, view)
		if perr == nil && parent == p && !at.Before(p.deadline) {
			v.mu.Unlock()
			return (*vview)(p)
		}
	}
	c := &vctx{Context: parent, v: v, deadline: at}
	if pd, ok := parent.Deadline(); ok && pd.Before(c.deadline) {
		c.deadline = pd
	}
	if perr != nil {
		c.cancelLocked(perr)
		v.mu.Unlock()
		return c
	}
	c.ev.kind, c.ev.c = evCtxDeadline, c
	v.schedule(&c.ev, c.deadline)
	if p != nil {
		p.linkChild(c)
	} else if pdone != nil {
		// Arbitrary cancellable parent: watch it from an unregistered
		// goroutine. The watcher takes the self-grant path (busy++ under
		// the lock), so safety holds; the wakeup lands between events
		// rather than at a scheduled one, which is the documented
		// nondeterminism window for stdlib contexts in virtual mode. The
		// watcher is handed the channel: made here, under v.mu, it is the
		// one cancelLocked closes.
		c.done = make(chan struct{})
		go c.watch(pdone, c.done)
	}
	v.mu.Unlock()
	return c
}

// end is End for one of the clock's contexts.
func (c *vctx) end() {
	if c.stop.CompareAndSwap(false, true) {
		c.v.mu.Lock()
		c.cancelLocked(context.Canceled)
		c.v.mu.Unlock()
	}
}

// watch ends c when its foreign parent ends, and returns when c has.
func (c *vctx) watch(parentDone, done <-chan struct{}) {
	select {
	case <-parentDone:
		// Read the parent's error BEFORE taking v.mu: if the parent chain
		// bottoms out in a vctx, its Err() takes v.mu too, and taking it
		// while holding it self-deadlocks the whole clock.
		err := c.Context.Err()
		c.v.mu.Lock()
		c.cancelLocked(err)
		c.v.mu.Unlock()
	case <-done:
	}
}

// cancelLocked finalizes the context with err; v.mu must be held.
// Idempotent. Grants parked waiters and cascades to child contexts,
// all inside the same serialized critical section.
func (c *vctx) cancelLocked(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	c.v.cancelEventLocked(&c.ev)
	if c.parent != nil {
		c.parent.unlinkChild(c)
	}
	if c.done != nil {
		close(c.done)
	}
	// First until empty, not first to last: a grant unlinks the waiter and
	// a child's cancelLocked unlinks the child.
	for w := c.firstWaiter; w != nil; w = c.firstWaiter {
		c.v.cancelEventLocked(&w.ev)
		c.v.grant(w, err)
	}
	for ch := c.firstChild; ch != nil; ch = c.firstChild {
		ch.cancelLocked(context.Canceled)
	}
}

func (c *vctx) linkWaiter(w *waiter) {
	w.ctx, w.prev, w.next = c, c.lastWaiter, nil
	if c.lastWaiter != nil {
		c.lastWaiter.next = w
	} else {
		c.firstWaiter = w
	}
	c.lastWaiter = w
}

func (c *vctx) unlinkWaiter(w *waiter) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		c.firstWaiter = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		c.lastWaiter = w.prev
	}
	w.ctx, w.prev, w.next = nil, nil, nil
}

func (c *vctx) linkChild(ch *vctx) {
	ch.parent, ch.prev, ch.next = c, c.lastChild, nil
	if c.lastChild != nil {
		c.lastChild.next = ch
	} else {
		c.firstChild = ch
	}
	c.lastChild = ch
}

func (c *vctx) unlinkChild(ch *vctx) {
	if ch.prev != nil {
		ch.prev.next = ch.next
	} else {
		c.firstChild = ch.next
	}
	if ch.next != nil {
		ch.next.prev = ch.prev
	} else {
		c.lastChild = ch.prev
	}
	ch.parent, ch.prev, ch.next = nil, nil, nil
}

func (c *vctx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *vctx) Done() <-chan struct{} {
	c.v.mu.Lock()
	defer c.v.mu.Unlock()
	if c.done == nil {
		if c.err != nil {
			c.done = closedChan
		} else {
			c.done = make(chan struct{})
		}
	}
	return c.done
}

func (c *vctx) Err() error {
	c.v.mu.Lock()
	defer c.v.mu.Unlock()
	return c.err
}
