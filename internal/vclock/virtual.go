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
	trace   []traceRecord
}

// eventKind says what an event does when it fires, and so which of the
// event's targets is set. Its String is the name Trace prints.
type eventKind uint8

const (
	evSleep       eventKind = iota // grants w: a Sleep is over
	evTick                         // grants w: a Ticker.Wait's tick has come
	evGroupWake                    // grants w: a Group released this waiter
	evCtxDeadline                  // ends c with DeadlineExceeded
	evTimer                        // delivers the time on t's channel
	evAfterFunc                    // runs f on a registered goroutine
	evGo                           // likewise: the start of a Go
)

var eventKindNames = [...]string{
	evSleep: "sleep", evTick: "tick", evGroupWake: "group-wake", evCtxDeadline: "ctx-deadline",
	evTimer: "timer", evAfterFunc: "afterfunc", evGo: "go",
}

func (k eventKind) String() string { return eventKindNames[k] }

// eventState follows an event through the heap. Only a pending event is
// in it, so an event that has fired or been cancelled may be scheduled
// again, which is how a pooled waiter and a Reset timer reuse theirs.
type eventState uint8

const (
	evIdle eventState = iota // never scheduled
	evPending
	evFired
	evCancelled
)

// event is one scheduled occurrence: a value stored in what it wakes (a
// waiter, a context, a timer), or allocated on its own for a Go. The
// engine switches on kind; no closure is built to fire it.
type event struct {
	at    time.Time
	seq   uint64
	index int
	kind  eventKind
	state eventState

	// The target: the one that kind names.
	w *waiter
	c *vctx
	t *vtimer
	f func()
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

// waiter is one parked goroutine awaiting a grant. ev is its wake-up
// event when what it awaits is a time or a Group's release; ch has room
// for the one token a grant sends, so nothing is made per wait and the
// waiter can be used again once the token is taken.
type waiter struct {
	ev      event
	ch      chan struct{}
	granted bool
	err     error

	// The clock context the wait is under, if any, and the neighbours in
	// its list of waiters; grant unlinks.
	ctx        *vctx
	prev, next *waiter
}

func newWaiter() *waiter {
	w := &waiter{ch: make(chan struct{}, 1)}
	w.ev.w = w
	return w
}

// waiterPool recycles the waiters of Sleep and Ticker.Wait, which nothing
// points at once the wait has returned. A Gate or a Group keeps a pointer
// to its waiter past the wake and reads granted through it, so theirs are
// made new for every wait.
var waiterPool = sync.Pool{New: func() any { return newWaiter() }}

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

// schedule registers e, whose kind and target the caller has set, to
// fire at at; v.mu must be held.
func (v *Virtual) schedule(e *event, at time.Time) {
	if at.Before(v.now) {
		at = v.now
	}
	v.seq++
	e.at, e.seq, e.state = at, v.seq, evPending
	heap.Push(&v.heap, e)
}

// cancelEventLocked takes a pending event out of the heap, at once:
// long-deadline context events are almost always cancelled well before
// they fire, and letting them pile up would make every heap operation
// pay for the corpses. Any other state is left alone; v.mu must be held.
func (v *Virtual) cancelEventLocked(e *event) {
	if e.state != evPending {
		return
	}
	e.state = evCancelled
	heap.Remove(&v.heap, e.index)
}

// grant wakes a parked waiter, handing it a busy credit so the engine
// waits for it before firing the next event; v.mu must be held. The send
// is the last touch: the woken goroutine may recycle w straight away.
func (v *Virtual) grant(w *waiter, err error) {
	if w.granted {
		return
	}
	w.granted = true
	w.err = err
	if w.ctx != nil {
		w.ctx.unlinkWaiter(w)
	}
	v.busy++
	w.ch <- struct{}{}
}

// attach lists w under c, the clock context its wait is under, so that
// the context's end grants w under v.mu, in the serialized order, and w
// need not watch Done. It reports whether it did: not without such a
// context (c is v.own(ctx), looked up before v.mu was taken), nor under
// one that has ended since the caller looked, whose closed Done park
// will find. v.mu must be held.
func (v *Virtual) attach(c *vctx, w *waiter) bool {
	if c == nil || c.err != nil {
		return false
	}
	c.linkWaiter(w)
	return true
}

// park releases the caller's busy credit and blocks until w is granted
// or, for a waiter no clock context will grant, until ctx is done; v.mu
// must be held on entry and is released.
func (v *Virtual) park(ctx context.Context, w *waiter, attached bool) error {
	v.busy--
	if v.busy < 0 {
		v.mu.Unlock()
		panic("vclock: park from a goroutine not registered with the virtual clock (spawn it via Clock.Go)")
	}
	v.cond.Broadcast()
	v.mu.Unlock()
	if attached {
		<-w.ch
		return w.err
	}
	select {
	case <-w.ch:
		return w.err
	case <-ctx.Done():
		v.mu.Lock()
		if w.granted {
			v.mu.Unlock()
			// The grant raced the cancellation; the busy credit is
			// already ours either way. Take its token, or the next user
			// of a pooled waiter would wake on it.
			<-w.ch
			return w.err
		}
		w.granted = true
		v.cancelEventLocked(&w.ev)
		v.busy++
		v.mu.Unlock()
		return ctx.Err()
	}
}

// sleepUntil parks the caller until an event of the given kind fires at
// at, or ctx ends: the whole of Sleep and Ticker.Wait once they hold
// v.mu, which it releases. c is v.own(ctx).
func (v *Virtual) sleepUntil(ctx context.Context, c *vctx, at time.Time, kind eventKind) error {
	w := waiterPool.Get().(*waiter)
	w.ev.kind = kind
	v.schedule(&w.ev, at)
	err := v.park(ctx, w, v.attach(c, w))
	w.granted, w.err = false, nil
	waiterPool.Put(w)
	return err
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
	c := v.own(ctx)
	v.mu.Lock()
	return v.sleepUntil(ctx, c, v.now.Add(d), evSleep)
}

// After returns a one-shot channel; see the interface note — only
// unregistered (driver-side) goroutines may block on it.
func (v *Virtual) After(d time.Duration) <-chan time.Time { return v.NewTimer(d).C() }

// AfterFunc schedules f to run after d on a registered goroutine.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &vtimer{v: v}
	t.ev.kind, t.ev.f = evAfterFunc, f
	v.schedule(&t.ev, v.now.Add(d))
	return t
}

// NewTimer returns a one-shot timer delivering the virtual fire time
// on a buffered channel.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &vtimer{v: v, ch: make(chan time.Time, 1)}
	t.ev.kind, t.ev.t = evTimer, t
	v.schedule(&t.ev, v.now.Add(d))
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
	v.schedule(&event{kind: evGo, f: f}, v.now)
}

// spawn runs f as a registered goroutine; v.mu must be held.
func (v *Virtual) spawn(f func()) {
	v.busy++
	go func() {
		defer v.exitBusy()
		f()
	}()
}

// NewGate returns a virtual Gate.
func (v *Virtual) NewGate() Gate { return &vgate{v: v} }

// NewGroup returns a virtual Group.
func (v *Virtual) NewGroup() Group { return &vgroup{v: v} }

// --- engine ---

// peekLocked returns the next event without popping it, or nil.
func (v *Virtual) peekLocked() *event {
	if len(v.heap) == 0 {
		return nil
	}
	return v.heap[0]
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
	e.state = evFired
	if v.tracing {
		v.trace = append(v.trace, traceRecord{v.now.Sub(v.start).Microseconds(), e.seq, e.kind})
	}
	switch e.kind {
	case evSleep, evTick, evGroupWake:
		v.grant(e.w, nil)
	case evCtxDeadline:
		e.c.cancelLocked(context.DeadlineExceeded)
	case evTimer:
		select {
		case e.t.ch <- v.now:
		default:
		}
	case evAfterFunc, evGo:
		v.spawn(e.f)
	}
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

// traceRecord is one fired event as the engine keeps it; Trace formats.
type traceRecord struct {
	us   int64 // offset from the epoch
	seq  uint64
	kind eventKind
}

// StartTrace clears the trace buffer and begins recording every fired
// event, which Trace renders one line each: "+<offset-us> #<seq> <kind>".
// Under serialized execution the trace is a pure function of the
// workload and its seeds, which is the determinism proof the chaos
// experiments commit.
func (v *Virtual) StartTrace() {
	v.mu.Lock()
	v.tracing = true
	v.trace = nil
	v.mu.Unlock()
}

// Trace returns the recorded event trace as text.
func (v *Virtual) Trace() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	lines := make([]string, len(v.trace))
	for i, r := range v.trace {
		lines[i] = fmt.Sprintf("+%012dus #%06d %s", r.us, r.seq, r.kind)
	}
	return lines
}

// PendingEvents returns how many live events are scheduled (tests and
// leak checks).
func (v *Virtual) PendingEvents() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.heap)
}

// --- timers & tickers ---

// vtimer is a Timer around its own event: evTimer delivers on ch,
// evAfterFunc (ch nil) runs the event's f.
type vtimer struct {
	v  *Virtual
	ch chan time.Time
	ev event
}

func (t *vtimer) C() <-chan time.Time { return t.ch }

func (t *vtimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	active := t.ev.state == evPending
	t.v.cancelEventLocked(&t.ev)
	return active
}

func (t *vtimer) Reset(d time.Duration) bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	active := t.ev.state == evPending
	t.v.cancelEventLocked(&t.ev)
	t.v.schedule(&t.ev, t.v.now.Add(d))
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
	c := t.v.own(ctx)
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
	return t.v.sleepUntil(ctx, c, at, evTick)
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
	c := g.v.own(ctx)
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
	w := newWaiter()
	g.waiter = w
	err := g.v.park(ctx, w, g.v.attach(c, w))
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
				w.ev.kind = evGroupWake
				g.v.schedule(&w.ev, g.v.now)
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
	c := g.v.own(ctx)
	g.v.mu.Lock()
	if g.n == 0 {
		g.v.mu.Unlock()
		return nil
	}
	w := newWaiter()
	g.waiters = append(g.waiters, w)
	return g.v.park(ctx, w, g.v.attach(c, w))
}
