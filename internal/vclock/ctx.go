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
	stop     atomic.Bool
	ev       event // the deadline

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

// own returns the context of this clock that ctx is, or that ctx wraps in
// layers which add values and nothing else (tracing adds a
// context.WithValue on every call path); nil if there is none. If the
// nearest vctx ancestor's done channel IS ctx's done channel, no
// cancellable stdlib context sits between them, so treating ctx as the
// ancestor is exact — and keeps deriving from it, and waiting under it,
// on the synchronous serialized path instead of a watcher goroutine or a
// select. It may take v.mu, so callers look before they lock.
func (v *Virtual) own(ctx context.Context) *vctx {
	c, ok := ctx.(*vctx)
	if !ok {
		done := ctx.Done()
		if done == nil { // Background, WithoutCancel: nothing to be woken by
			return nil
		}
		if c, ok = ctx.Value(vctxKey{}).(*vctx); !ok || done != c.Done() {
			return nil
		}
	}
	if c.v != v {
		return nil
	}
	return c
}

// WithTimeout derives a context whose deadline is d of virtual time
// from now. Parent cancellation propagates: synchronously (serialized)
// for parents created by this clock, via a watcher goroutine for
// arbitrary cancellable parents.
func (v *Virtual) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	p := v.own(parent)
	var perr error
	var pdone <-chan struct{}
	if p == nil {
		// Safe to ask outside v.mu only; one of the clock's own contexts is
		// read under the lock below instead (its Err() would re-lock v.mu).
		perr = parent.Err()
		pdone = parent.Done()
	}
	v.mu.Lock()
	c := &vctx{Context: parent, v: v, deadline: v.now.Add(d)}
	if pd, ok := parent.Deadline(); ok && pd.Before(c.deadline) {
		c.deadline = pd
	}
	if p != nil {
		perr = p.err
	}
	if perr != nil {
		c.cancelLocked(perr)
		v.mu.Unlock()
		return c, func() {}
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
	cancel := func() {
		if c.stop.CompareAndSwap(false, true) {
			v.mu.Lock()
			c.cancelLocked(context.Canceled)
			v.mu.Unlock()
		}
	}
	return c, cancel
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
