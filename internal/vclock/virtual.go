package vclock

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"
)

// Virtual is the deterministic discrete-event Clock.
//
// Model: a priority queue of pending events (timers, ticks, deadlines,
// goroutine starts) ordered by (virtual time, sequence number), plus a
// busy counter of registered goroutines that are currently runnable.
// The engine (Run / Advance / RunUntilIdle) fires exactly one event at
// a time and fires the next only after the busy count returns to zero —
// i.e. virtual time advances only when every registered goroutine is
// parked in a clock primitive. There is no sleep-and-hope: execution is
// fully serialized, so a fixed seed yields a bit-identical event trace.
//
// Rules for code running under a Virtual clock (enforced by panics
// where cheap, by review elsewhere; see DESIGN.md §13):
//
//   - every goroutine that parks (Sleep, Ticker.Wait, Gate.Wait,
//     Group.Wait) must be spawned via Go or be the root of Run;
//   - registered goroutines never block on bare channels, WaitGroups,
//     or network I/O — they use Gate/Group, and fan-out runs with
//     Parallelism=1;
//   - cancellation that must wake a parked goroutine flows through a
//     context created by this clock's WithTimeout (stdlib contexts work
//     but wake asynchronously, which costs determinism, not safety).
type Virtual struct {
	mu   sync.Mutex
	cond *sync.Cond

	start time.Time
	now   time.Time
	seq   uint64
	heap  eventHeap
	busy  int

	tracing bool
	trace   []string
}

// event is one scheduled occurrence. fire runs with v.mu held.
type event struct {
	at        time.Time
	seq       uint64
	kind      string
	cancelled bool
	fired     bool
	index     int
	fire      func(v *Virtual)
}

// eventHeap orders events by (time, seq) — seq breaks ties in
// registration order, which serialized execution makes deterministic.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// waiter is one parked goroutine awaiting a grant.
type waiter struct {
	ch      chan struct{}
	granted bool
	err     error
	ev      *event
}

// NewVirtual creates a virtual clock whose epoch is the current wall
// time. Anchoring near real time keeps any stdlib-derived deadline
// (code paths not yet threaded through the clock) from appearing
// already expired; determinism is unaffected because traces and all
// behaviour depend only on offsets from the epoch.
func NewVirtual() *Virtual { return NewVirtualAt(time.Now()) }

// NewVirtualAt creates a virtual clock with an explicit epoch.
func NewVirtualAt(epoch time.Time) *Virtual {
	v := &Virtual{start: epoch, now: epoch}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// schedule registers an event; v.mu must be held.
func (v *Virtual) schedule(at time.Time, kind string, fire func(*Virtual)) *event {
	if at.Before(v.now) {
		at = v.now
	}
	v.seq++
	e := &event{at: at, seq: v.seq, kind: kind, fire: fire}
	heap.Push(&v.heap, e)
	return e
}

// cancelLocked marks e dead and removes it from the heap immediately.
// Lazy removal (skip-on-pop) would also be correct, but long-deadline
// context events are almost always cancelled well before they fire, and
// letting them pile up makes every heap operation pay for the corpses;
// v.mu must be held.
func (v *Virtual) cancelEventLocked(e *event) {
	if e == nil || e.cancelled || e.fired {
		return
	}
	e.cancelled = true
	if e.index >= 0 {
		heap.Remove(&v.heap, e.index)
	}
}

// grant wakes a parked waiter, handing it a busy credit so the engine
// waits for it before firing the next event; v.mu must be held.
func (v *Virtual) grant(w *waiter, err error) {
	if w.granted {
		return
	}
	w.granted = true
	w.err = err
	v.busy++
	close(w.ch)
}

// park releases the caller's busy credit and blocks until granted or
// ctx is done; v.mu must be held on entry and is released.
func (v *Virtual) park(ctx context.Context, w *waiter) error {
	v.busy--
	if v.busy < 0 {
		v.mu.Unlock()
		panic("vclock: park from a goroutine not registered with the virtual clock (spawn it via Clock.Go)")
	}
	v.cond.Broadcast()
	v.mu.Unlock()
	select {
	case <-w.ch:
		return w.err
	case <-ctx.Done():
		v.mu.Lock()
		if w.granted {
			v.mu.Unlock()
			// The grant raced the cancellation; the busy credit is
			// already ours either way.
			return w.err
		}
		w.granted = true
		v.cancelEventLocked(w.ev)
		v.busy++
		v.mu.Unlock()
		return ctx.Err()
	}
}

// attachCtx registers w with ctx when ctx is one of this clock's
// virtual contexts, so cancellation grants the waiter synchronously
// (serialized) instead of waking it through the select race; v.mu held.
func (v *Virtual) attachCtx(ctx context.Context, w *waiter) {
	if c, ok := ctx.(*vctx); ok && c.v == v && c.err == nil {
		c.waiters = append(c.waiters, w)
	}
}

func (v *Virtual) exitBusy() {
	v.mu.Lock()
	v.busy--
	v.cond.Broadcast()
	v.mu.Unlock()
}

// --- Clock interface ---

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since is Now().Sub(t) in virtual time.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Until is t.Sub(Now()) in virtual time.
func (v *Virtual) Until(t time.Time) time.Duration { return t.Sub(v.Now()) }

// Elapsed is the virtual time passed since the epoch.
func (v *Virtual) Elapsed() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now.Sub(v.start)
}

// Sleep parks the calling (registered) goroutine for d of virtual time.
func (v *Virtual) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	v.mu.Lock()
	w := &waiter{ch: make(chan struct{})}
	w.ev = v.schedule(v.now.Add(d), "sleep", func(v *Virtual) { v.grant(w, nil) })
	v.attachCtx(ctx, w)
	return v.park(ctx, w)
}

// After returns a one-shot channel; see the interface note — only
// unregistered (driver-side) goroutines may block on it.
func (v *Virtual) After(d time.Duration) <-chan time.Time { return v.NewTimer(d).C() }

// AfterFunc schedules f to run after d on a registered goroutine.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &vtimer{v: v}
	t.ev = v.schedule(v.now.Add(d), "afterfunc", func(v *Virtual) {
		v.busy++
		go func() {
			defer v.exitBusy()
			f()
		}()
	})
	return t
}

// NewTimer returns a one-shot timer delivering the virtual fire time
// on a buffered channel.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &vtimer{v: v, ch: make(chan time.Time, 1)}
	t.arm(d)
	return t
}

// NewTicker returns a virtual ticker; consumers loop on Wait.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("vclock: non-positive ticker period")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return &vticker{v: v, period: d, next: v.now.Add(d)}
}

// Go registers f with the barrier and schedules its start at the
// current virtual time; it begins running once every currently
// runnable goroutine has parked.
func (v *Virtual) Go(f func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.schedule(v.now, "go", func(v *Virtual) {
		v.busy++
		go func() {
			defer v.exitBusy()
			f()
		}()
	})
}

// NewGate returns a virtual Gate.
func (v *Virtual) NewGate() Gate { return &vgate{v: v} }

// NewGroup returns a virtual Group.
func (v *Virtual) NewGroup() Group { return &vgroup{v: v} }

// --- engine ---

// peekLocked discards cancelled events and returns the next live one
// without popping, or nil.
func (v *Virtual) peekLocked() *event {
	for v.heap.Len() > 0 {
		e := v.heap[0]
		if e.cancelled {
			heap.Pop(&v.heap)
			continue
		}
		return e
	}
	return nil
}

// stepLocked fires the earliest pending event, advancing now to its
// time; it reports whether an event fired.
func (v *Virtual) stepLocked() bool {
	e := v.peekLocked()
	if e == nil {
		return false
	}
	heap.Pop(&v.heap)
	if e.at.After(v.now) {
		v.now = e.at
	}
	e.fired = true
	if v.tracing {
		v.trace = append(v.trace,
			fmt.Sprintf("+%012dus #%06d %s", v.now.Sub(v.start).Microseconds(), e.seq, e.kind))
	}
	e.fire(v)
	return true
}

func (v *Virtual) waitQuietLocked() {
	for v.busy > 0 {
		v.cond.Wait()
	}
}

// Advance moves virtual time forward by d, firing every event due in
// the window in order and waiting for full quiescence between events.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	v.advanceToLocked(v.now.Add(d))
	v.mu.Unlock()
}

// AdvanceTo is Advance to an absolute virtual time.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	v.advanceToLocked(t)
	v.mu.Unlock()
}

func (v *Virtual) advanceToLocked(t time.Time) {
	for {
		v.waitQuietLocked()
		e := v.peekLocked()
		if e == nil || e.at.After(t) {
			break
		}
		v.stepLocked()
	}
	if t.After(v.now) {
		v.now = t
	}
}

// RunUntilIdle fires events (waiting for quiescence between them)
// until none remain. It does not terminate while periodic work — a
// ticker loop that re-arms itself — is still live; bound those loops
// with a context or use Advance.
func (v *Virtual) RunUntilIdle() {
	v.mu.Lock()
	for {
		v.waitQuietLocked()
		if !v.stepLocked() {
			break
		}
	}
	v.mu.Unlock()
}

// Run executes fn as a registered goroutine and drives the event loop
// until fn returns, however much virtual time that takes. Background
// periodic events keep firing while fn is blocked; they are left
// pending when Run returns. Run panics if fn parks with no pending
// events to wake anything (a guaranteed deadlock — some goroutine
// blocked outside the clock's primitives).
func (v *Virtual) Run(fn func()) {
	finished := false
	v.Go(func() {
		defer func() {
			v.mu.Lock()
			finished = true
			v.cond.Broadcast()
			v.mu.Unlock()
		}()
		fn()
	})
	v.mu.Lock()
	for !finished {
		for v.busy > 0 && !finished {
			v.cond.Wait()
		}
		if finished {
			break
		}
		if !v.stepLocked() {
			v.mu.Unlock()
			panic("vclock: deadlock: all goroutines parked with no pending events " +
				"(a goroutine is blocked outside the clock's primitives)")
		}
	}
	v.mu.Unlock()
}

// --- tracing ---

// StartTrace clears the trace buffer and begins recording one line per
// fired event: "+<offset-us> #<seq> <kind>". Under serialized
// execution the trace is a pure function of the workload and its
// seeds, which is the determinism proof the chaos experiments commit.
func (v *Virtual) StartTrace() {
	v.mu.Lock()
	v.tracing = true
	v.trace = nil
	v.mu.Unlock()
}

// Trace returns a copy of the recorded event trace.
func (v *Virtual) Trace() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.trace...)
}

// PendingEvents returns how many live events are scheduled (tests and
// leak checks).
func (v *Virtual) PendingEvents() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, e := range v.heap {
		if !e.cancelled {
			n++
		}
	}
	return n
}

// --- timers & tickers ---

type vtimer struct {
	v  *Virtual
	ch chan time.Time // nil for AfterFunc
	ev *event
}

func (t *vtimer) C() <-chan time.Time { return t.ch }

// arm schedules the fire event; v.mu must be held.
func (t *vtimer) arm(d time.Duration) {
	t.ev = t.v.schedule(t.v.now.Add(d), "timer", func(v *Virtual) {
		if t.ch != nil {
			select {
			case t.ch <- v.now:
			default:
			}
		}
	})
}

func (t *vtimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	active := t.ev != nil && !t.ev.fired && !t.ev.cancelled
	t.v.cancelEventLocked(t.ev)
	return active
}

func (t *vtimer) Reset(d time.Duration) bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	active := t.ev != nil && !t.ev.fired && !t.ev.cancelled
	t.v.cancelEventLocked(t.ev)
	if t.ch == nil {
		// AfterFunc timer: re-arm the original callback.
		old := t.ev
		t.ev = t.v.schedule(t.v.now.Add(d), "afterfunc", old.fire)
		return active
	}
	t.arm(d)
	return active
}

type vticker struct {
	v       *Virtual
	period  time.Duration
	next    time.Time
	stopped bool
}

func (t *vticker) Wait(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.v.mu.Lock()
	if t.stopped {
		t.v.mu.Unlock()
		return context.Canceled
	}
	at := t.next
	if at.Before(t.v.now) {
		at = t.v.now // fell behind: fire immediately, no backlog
	}
	t.next = at.Add(t.period)
	w := &waiter{ch: make(chan struct{})}
	w.ev = t.v.schedule(at, "tick", func(v *Virtual) { v.grant(w, nil) })
	t.v.attachCtx(ctx, w)
	return t.v.park(ctx, w)
}

func (t *vticker) Stop() {
	t.v.mu.Lock()
	t.stopped = true
	t.v.mu.Unlock()
}

// --- gate & group ---

type vgate struct {
	v      *Virtual
	tokens int
	waiter *waiter
}

func (g *vgate) Signal() {
	g.v.mu.Lock()
	defer g.v.mu.Unlock()
	if g.waiter != nil && !g.waiter.granted {
		w := g.waiter
		g.waiter = nil
		g.v.grant(w, nil)
		return
	}
	g.tokens++
}

func (g *vgate) Wait(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	g.v.mu.Lock()
	if g.tokens > 0 {
		g.tokens--
		g.v.mu.Unlock()
		return nil
	}
	if g.waiter != nil {
		g.v.mu.Unlock()
		panic("vclock: concurrent Gate.Wait (single-waiter contract)")
	}
	w := &waiter{ch: make(chan struct{})}
	g.waiter = w
	g.v.attachCtx(ctx, w)
	err := g.v.park(ctx, w)
	if err != nil {
		// Cancelled: detach so a later Signal deposits a token instead
		// of granting a dead waiter.
		g.v.mu.Lock()
		if g.waiter == w {
			g.waiter = nil
		}
		g.v.mu.Unlock()
	}
	return err
}

type vgroup struct {
	v       *Virtual
	n       int
	waiters []*waiter
}

func (g *vgroup) Add(n int) {
	g.v.mu.Lock()
	defer g.v.mu.Unlock()
	g.n += n
	if g.n < 0 {
		panic("vclock: negative Group counter")
	}
	if g.n == 0 {
		// One wake-up event per waiter, in the order they began to wait,
		// not a grant to each here and now: granted together, the waiters
		// and the releaser would all be runnable at once, and whatever
		// they do next — draw from a shared rng, schedule events — would
		// happen in the order the Go scheduler picks. As events they run
		// one after another, each once the one before has parked.
		for _, w := range g.waiters {
			if !w.granted { // a waiter whose context ended has left
				w.ev = g.v.schedule(g.v.now, "group-wake", func(v *Virtual) { v.grant(w, nil) })
			}
		}
		g.waiters = nil
	}
}

func (g *vgroup) Done() { g.Add(-1) }

func (g *vgroup) Wait(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	g.v.mu.Lock()
	if g.n == 0 {
		g.v.mu.Unlock()
		return nil
	}
	w := &waiter{ch: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.v.attachCtx(ctx, w)
	return g.v.park(ctx, w)
}
