// Package fanout provides the bounded worker pool the negotiation hot
// path fans out on: per-resource calls (reservations, k-of-n probes,
// create_instance, cancellations, daemon pulls) are independent, so they
// run concurrently up to a configured limit instead of one host at a
// time.
//
// Concurrent work runs on parked workers, not on goroutines born for one
// task. Everything fanned out here runs the same deep call chain
// (dispatch → Enactor → retry policy → ORB → Host → reservation table),
// and a fresh goroutine starts on a small stack that the runtime doubles
// and copies several times on the way down — for a task that is over in
// ~100 µs that growth was a fifth of a TCP placement's CPU. A worker
// that parks keeps the stack it grew.
package fanout

import (
	"sync"
	"sync/atomic"

	"legion/internal/vclock"
)

// maxIdle bounds the parked workers. A worker that finishes with maxIdle
// already parked exits, so a burst leaves at most this many goroutines
// behind it. It is not a concurrency bound: that is the Limiter's count
// and Do's limit.
const maxIdle = 64

// task is what a worker is handed: a Do round to help with (r), or a
// function a Limiter admitted (fn, lim).
type task struct {
	r   *round
	fn  func()
	lim *Limiter
}

func (t task) run() {
	// Deferred, as the releases were when each task had its own
	// goroutine: a task that ends in runtime.Goexit (t.FailNow in a
	// test's handler) must still give back its slot.
	if t.r != nil {
		defer t.r.wg.Done()
		t.r.work()
		return
	}
	defer t.lim.inFlight.Add(-1)
	t.fn()
}

// worker is one pooled goroutine. Its channel has capacity 1 so the
// hand-off in spawn never blocks: only a parked worker, whose channel is
// empty, is on the idle list.
type worker struct {
	ch chan task
}

// pool is the idle list shared by every Limiter and every Do.
var pool struct {
	mu   sync.Mutex
	idle []*worker // a stack: the most recently parked worker is last
}

// spawn starts t at once: on the most recently parked worker, or on a
// new one when none is parked. LIFO keeps the warmest stack and cache in
// use and leaves the cold workers at the bottom, whose stacks the GC
// shrinks, undisturbed. spawn never blocks and never queues a task
// behind a running one, so it adds no admission rule of its own.
func spawn(t task) {
	pool.mu.Lock()
	if n := len(pool.idle); n > 0 {
		w := pool.idle[n-1]
		pool.idle[n-1] = nil
		pool.idle = pool.idle[:n-1]
		pool.mu.Unlock()
		w.ch <- t
		return
	}
	pool.mu.Unlock()
	w := &worker{ch: make(chan task, 1)}
	go w.loop(t)
}

// loop runs t, then parks for the next task until the idle list is full.
func (w *worker) loop(t task) {
	for {
		t.run()
		// A parked worker must pin nothing: the task holds the request's
		// argument and, through fn, whatever the handler captured.
		t = task{}
		pool.mu.Lock()
		if len(pool.idle) >= maxIdle {
			pool.mu.Unlock()
			return
		}
		pool.idle = append(pool.idle, w)
		pool.mu.Unlock()
		t = <-w.ch
	}
}

// Limiter is a non-blocking concurrency bound over spawned tasks: the
// admission-control counterpart of Do's fixed-width fan-out. The ORB
// server uses one to cap in-flight request handlers — a flood of frames
// on one connection must shed, not start workers until memory is
// exhausted.
type Limiter struct {
	limit    int64
	inFlight atomic.Int64
}

// NewLimiter returns a Limiter admitting at most limit concurrent
// tasks; limit < 1 panics, which is a configuration bug.
func NewLimiter(limit int) *Limiter {
	if limit < 1 {
		panic("fanout: limiter needs limit >= 1")
	}
	return &Limiter{limit: int64(limit)}
}

// TryGo runs fn on a parked worker (a new one when none is parked) if a
// slot is free, returning whether it was admitted. It never blocks: at
// capacity it refuses immediately so the caller can shed with a typed
// refusal instead of queueing unboundedly, and an admitted fn starts at
// once, never behind another task.
func (l *Limiter) TryGo(fn func()) bool {
	if l.inFlight.Add(1) > l.limit {
		l.inFlight.Add(-1)
		return false
	}
	spawn(task{fn: fn, lim: l})
	return true
}

// InFlight returns the number of currently admitted tasks.
func (l *Limiter) InFlight() int { return int(l.inFlight.Load()) }

// round is one Do call, shared by the caller and its helpers. Rounds
// are pooled: a helper's task.run touches its round for the last time in
// wg.Done, so once Wait returns the caller is its only holder.
type round struct {
	next atomic.Int64
	n    int
	fn   func(i int)
	wg   sync.WaitGroup
}

// work claims indices until none are left.
func (r *round) work() {
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.n {
			return
		}
		r.fn(i)
	}
}

// Do calls fn(i) for every i in [0, n), running at most limit calls
// concurrently, and returns when all have finished. fn must write its
// result into caller-owned slots indexed by i (never shared state), so
// no synchronization is needed beyond the join. limit <= 1 degenerates
// to a plain loop on the calling goroutine — callers expose
// "parallelism 1" as an exact serial ablation.
//
// clk is the caller's clock. On any clock but vclock.Wall the loop is
// serial too: a parked worker is not registered with a virtual clock, and
// fn parking on one from it would spend another goroutine's busy credit.
//
// The calling goroutine works as one of the limit workers, so a fan-out
// of width w borrows min(limit, w)-1 parked workers, not w — on the
// query hot path (one Do per federated query) the hand-offs are
// measurable.
func Do(clk vclock.Clock, limit, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if limit > n {
		limit = n
	}
	if limit <= 1 || clk != vclock.Wall {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r := rounds.Get().(*round)
	r.next.Store(0)
	r.n, r.fn = n, fn
	r.wg.Add(limit - 1)
	for w := 1; w < limit; w++ {
		spawn(task{r: r})
	}
	r.work()
	r.wg.Wait()
	r.fn = nil // a pooled round must pin nothing the caller captured
	rounds.Put(r)
}

var rounds = sync.Pool{New: func() any { return new(round) }}
