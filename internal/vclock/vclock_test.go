package vclock

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualNowAdvance(t *testing.T) {
	v := NewVirtual()
	t0 := v.Now()
	v.Advance(5 * time.Second)
	if got := v.Since(t0); got != 5*time.Second {
		t.Fatalf("Since = %v, want 5s", got)
	}
	v.AdvanceTo(t0.Add(7 * time.Second))
	if got := elapsed(v); got != 7*time.Second {
		t.Fatalf("Elapsed = %v, want 7s", got)
	}
}

func TestVirtualSleepOrdering(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	var order []string
	sleeper := func(name string, d time.Duration) func() {
		return func() {
			_ = v.Sleep(context.Background(), d)
			mu.Lock()
			order = append(order, fmt.Sprintf("%s@%v", name, elapsed(v)))
			mu.Unlock()
		}
	}
	v.Go(sleeper("c", 30*time.Millisecond))
	v.Go(sleeper("a", 10*time.Millisecond))
	v.Go(sleeper("b", 20*time.Millisecond))
	v.RunUntilIdle()
	want := []string{"a@10ms", "b@20ms", "c@30ms"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestVirtualRun(t *testing.T) {
	v := NewVirtual()
	done := false
	v.Run(func() {
		for i := 0; i < 100; i++ {
			_ = v.Sleep(context.Background(), time.Millisecond)
		}
		done = true
	})
	if !done {
		t.Fatal("Run returned before fn finished")
	}
	if got := elapsed(v); got != 100*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 100ms", got)
	}
}

func TestVirtualSleepCancel(t *testing.T) {
	v := NewVirtual()
	ctx := v.WithDeadline(context.Background(), v.Now().Add(10*time.Millisecond))
	defer End(ctx)
	var err error
	v.Run(func() {
		err = v.Sleep(ctx, time.Hour)
	})
	if err != context.DeadlineExceeded {
		t.Fatalf("Sleep err = %v, want DeadlineExceeded", err)
	}
	if got := elapsed(v); got != 10*time.Millisecond {
		t.Fatalf("woke at %v, want 10ms", got)
	}
}

func TestVirtualWithDeadlineExpiry(t *testing.T) {
	v := NewVirtual()
	ctx := v.WithDeadline(context.Background(), v.Now().Add(time.Minute))
	defer End(ctx)
	dl, ok := ctx.Deadline()
	if !ok || !dl.Equal(v.Now().Add(time.Minute)) {
		t.Fatalf("Deadline = %v,%v; want virtual now+1m", dl, ok)
	}
	if ctx.Err() != nil {
		t.Fatalf("fresh ctx Err = %v", ctx.Err())
	}
	v.Advance(time.Minute)
	if ctx.Err() != context.DeadlineExceeded {
		t.Fatalf("expired ctx Err = %v, want DeadlineExceeded", ctx.Err())
	}
	select {
	case <-ctx.Done():
	default:
		t.Fatal("Done channel not closed after deadline")
	}
}

func TestVirtualWithDeadlineParentCancel(t *testing.T) {
	v := NewVirtual()
	parent := v.WithDeadline(context.Background(), v.Now().Add(time.Hour))
	child := v.WithDeadline(parent, v.Now().Add(time.Hour))
	defer End(child)
	End(parent)
	if child.Err() != context.Canceled {
		t.Fatalf("child Err = %v, want Canceled after parent cancel", child.Err())
	}
}

func TestVirtualWithDeadlineStdlibParent(t *testing.T) {
	v := NewVirtual()
	parent, pcancel := context.WithCancel(context.Background())
	child := v.WithDeadline(parent, v.Now().Add(time.Hour))
	defer End(child)
	pcancel()
	<-child.Done()
	if child.Err() != context.Canceled {
		t.Fatalf("child Err = %v, want Canceled", child.Err())
	}
}

// TestVirtualTicker: an Every loop ticks on its period, and a run that
// overruns it is followed by one immediate run, not a backlog.
func TestVirtualTicker(t *testing.T) {
	bg := context.Background()
	v := NewVirtual()
	var ticks []time.Duration
	v.Run(func() {
		three := v.NewGroup()
		three.Add(3)
		stop := Every(v, 10*time.Millisecond, func() {
			ticks = append(ticks, elapsed(v))
			// A slow first run: the loop runs once at once, then
			// resumes its schedule.
			if len(ticks) == 1 {
				_ = v.Sleep(bg, 25*time.Millisecond)
			}
			if len(ticks) <= 3 {
				three.Done()
			}
		})
		_ = three.Wait(bg)
		stop()
	})
	want := []time.Duration{10 * time.Millisecond, 35 * time.Millisecond, 45 * time.Millisecond}
	if fmt.Sprint(ticks) != fmt.Sprint(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	if n := v.PendingEvents(); n != 0 {
		t.Errorf("%d events pending after stop", n)
	}
}

// TestTickerStopEndsWait: a stop that finds no run in flight ends the
// loop's parked wait at once, without parking, so it may be called from
// outside Virtual.Run; no run starts after it, its tick is taken out of
// the queue, and a second stop does nothing. A stop before the loop ever
// started stops it too. The same on the wall clock.
func TestTickerStopEndsWait(t *testing.T) {
	v := NewVirtual()
	runs := 0
	stop := Every(v, 10*time.Millisecond, func() { runs++ })
	v.Advance(25 * time.Millisecond)
	stop() // the loop is parked on its tick at 30ms: nothing to wait for
	stop()
	v.Advance(time.Second)
	if runs != 2 {
		t.Errorf("virtual: %d runs, want 2 (at 10ms and 20ms)", runs)
	}
	if n := v.PendingEvents(); n != 0 {
		t.Errorf("virtual: %d events pending after stop", n)
	}

	never := Every(v, time.Millisecond, func() { t.Error("virtual: a loop stopped before it started ran") })
	never()
	v.Advance(time.Second)

	var wallRuns atomic.Int32
	wallStop := Every(Wall, time.Hour, func() { wallRuns.Add(1) })
	returned := make(chan struct{})
	go func() { wallStop(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("wall: stop with no run in flight still waiting after 10s")
	}
	if n := wallRuns.Load(); n != 0 {
		t.Errorf("wall: %d runs of an hourly loop", n)
	}
}

// TestEveryStopWaitsForTheRunInFlight: a stop called while a run sleeps
// on the virtual clock returns once that run has ended, at the virtual
// instant it ends, and no run starts after it. The stop parks on the
// clock, so the engine keeps moving time for the run it waits on.
func TestEveryStopWaitsForTheRunInFlight(t *testing.T) {
	bg := context.Background()
	v := NewVirtual()
	var starts, ends []time.Duration
	var stoppedAt time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		v.Run(func() {
			stop := Every(v, 10*time.Millisecond, func() {
				starts = append(starts, elapsed(v))
				_ = v.Sleep(bg, 25*time.Millisecond)
				ends = append(ends, elapsed(v))
			})
			_ = v.Sleep(bg, 15*time.Millisecond) // mid-run: 10ms to 35ms
			stop()
			stoppedAt = elapsed(v)
			_ = v.Sleep(bg, time.Second)
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stop never returned: the run it waits for is stuck on virtual time")
	}
	if fmt.Sprint(starts) != "[10ms]" || fmt.Sprint(ends) != "[35ms]" {
		t.Errorf("runs started at %v and ended at %v, want one from 10ms to 35ms", starts, ends)
	}
	if stoppedAt != 35*time.Millisecond {
		t.Errorf("stop returned at %v, want 35ms, when the run in flight ended", stoppedAt)
	}
}

// TestEveryStopWaitsForTheRunInFlightOnWall: the same on the wall clock,
// with the stop racing the loop across goroutines.
func TestEveryStopWaitsForTheRunInFlightOnWall(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	var runs, ended atomic.Int32
	stop := Every(Wall, time.Millisecond, func() {
		if runs.Add(1) == 1 {
			entered <- struct{}{}
			<-release
		}
		ended.Add(1)
	})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the loop never ran")
	}
	returned := make(chan struct{})
	go func() { stop(); close(returned) }()
	select {
	case <-returned:
		t.Fatal("stop returned while a run was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("stop still waiting 10s after the run in flight ended")
	}
	if r, e := runs.Load(), ended.Load(); r != 1 || e != 1 {
		t.Errorf("%d runs started and %d ended by stop's return, want 1 and 1", r, e)
	}
	time.Sleep(10 * time.Millisecond)
	if r := runs.Load(); r != 1 {
		t.Errorf("%d runs after stop returned, want 1", r)
	}
}

func TestVirtualGate(t *testing.T) {
	v := NewVirtual()
	g := v.NewGate()
	var got []string
	v.Go(func() {
		_ = v.Sleep(context.Background(), 5*time.Millisecond)
		got = append(got, "signal")
		g.Signal()
	})
	v.Run(func() {
		if err := g.Wait(context.Background()); err != nil {
			t.Errorf("Wait: %v", err)
		}
		got = append(got, "woke")
	})
	if fmt.Sprint(got) != "[signal woke]" {
		t.Fatalf("got %v", got)
	}
	// Token deposited before Wait is consumed without parking.
	g.Signal()
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("token Wait: %v", err)
	}
}

func TestVirtualGroup(t *testing.T) {
	v := NewVirtual()
	g := v.NewGroup()
	g.Add(3)
	var sum time.Duration
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * 10 * time.Millisecond
		v.Go(func() {
			_ = v.Sleep(context.Background(), d)
			g.Done()
		})
	}
	v.Run(func() {
		if err := g.Wait(context.Background()); err != nil {
			t.Errorf("Wait: %v", err)
		}
		sum = elapsed(v)
	})
	if sum != 30*time.Millisecond {
		t.Fatalf("group joined at %v, want 30ms", sum)
	}
}

// TestVirtualGroupReleasesOneAtATime: a Group's waiters are woken in the
// order they began to wait, each only once the goroutines before it have
// parked again — never together. The unsynchronised log would be a data
// race, and its order the Go scheduler's choice, if they ran at once.
func TestVirtualGroupReleasesOneAtATime(t *testing.T) {
	const waiters = 6
	for run := 0; run < 20; run++ {
		v := NewVirtual()
		g := v.NewGroup()
		g.Add(1)
		var log []int
		v.Run(func() {
			ctx := context.Background()
			all := v.NewGroup()
			all.Add(waiters)
			for i := 0; i < waiters; i++ {
				v.Go(func() {
					defer all.Done()
					short := v.WithDeadline(ctx, v.Now().Add(time.Duration(i%2)*time.Hour+time.Millisecond))
					defer End(short)
					if err := g.Wait(short); err != nil {
						return // the even ones give up before the release
					}
					log = append(log, i)
					_ = v.Sleep(ctx, time.Millisecond)
					log = append(log, -i)
				})
			}
			_ = v.Sleep(ctx, time.Second)
			g.Done()
			log = append(log, 0) // the releaser runs on until it parks
			_ = all.Wait(ctx)
		})
		if want := []int{0, 1, 3, 5, -1, -3, -5}; !slices.Equal(log, want) {
			t.Fatalf("run %d: wake order %v, want %v", run, log, want)
		}
	}
}

func TestVirtualAfterFunc(t *testing.T) {
	v := NewVirtual()
	fired := 0
	tm := v.AfterFunc(10*time.Millisecond, func() { fired++ })
	v.Advance(5 * time.Millisecond)
	if fired != 0 {
		t.Fatal("fired early")
	}
	if !tm.Stop() {
		t.Fatal("Stop on pending timer = false")
	}
	v.Advance(20 * time.Millisecond)
	if fired != 0 {
		t.Fatal("fired after Stop")
	}
}

func TestVirtualTraceDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		v := NewVirtual()
		v.StartTrace()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			d := time.Duration(rng.Intn(50)) * time.Millisecond
			v.Go(func() { _ = v.Sleep(context.Background(), d) })
		}
		v.RunUntilIdle()
		return v.Trace()
	}
	a, b := run(7), run(7)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same-seed traces differ:\n%v\n%v", a, b)
	}
	c := run(8)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different-seed traces identical (trace not capturing schedule)")
	}
}

func TestVirtualRunDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	v := NewVirtual()
	g := v.NewGate()
	v.Run(func() {
		_ = g.Wait(context.Background()) // nothing will ever Signal
	})
}

func TestWallClockBasics(t *testing.T) {
	c := Default(nil)
	t0 := c.Now()
	if err := c.Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if c.Since(t0) <= 0 {
		t.Fatal("time did not advance")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("cancelled Sleep err = %v", err)
	}
	g := c.NewGate()
	g.Signal()
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("gate: %v", err)
	}
	grp := c.NewGroup()
	grp.Add(1)
	go grp.Done()
	if err := grp.Wait(context.Background()); err != nil {
		t.Fatalf("group: %v", err)
	}
}

// --- property test (satellite 2): randomized timer operations against
// a model oracle. Invariants: a timer fires never early, at most once,
// and exactly once unless stopped while pending; fires are
// observed in nondecreasing virtual-time order.

type modelTimer struct {
	id      int
	due     time.Duration // elapsed-at-fire per the model; -1 when inactive
	fired   bool
	stopped bool
}

func TestVirtualTimerProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			v := NewVirtual()
			epoch := v.Now()

			type firing struct {
				id int
				at time.Duration
			}
			var mu sync.Mutex
			var fires []firing

			var timers []Timer
			var model []*modelTimer

			elapsed := func() time.Duration { return v.Now().Sub(epoch) }

			// consume checks fire records appended since the last call
			// against the model's state as armed at fire time: never
			// early, never after a Stop, at most once per arming.
			processed := 0
			consume := func(step int) {
				mu.Lock()
				defer mu.Unlock()
				for ; processed < len(fires); processed++ {
					f := fires[processed]
					m := model[f.id]
					switch {
					case m.stopped:
						t.Fatalf("step %d: timer #%d fired after Stop", step, f.id)
					case m.fired:
						t.Fatalf("step %d: timer #%d fired twice for one arming", step, f.id)
					case f.at < m.due:
						t.Fatalf("step %d: timer #%d fired early: at %v, due %v", step, f.id, f.at, m.due)
					}
					m.fired = true
				}
			}

			for step := 0; step < 200; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // create
					id := len(timers)
					d := time.Duration(rng.Intn(100)) * time.Millisecond
					m := &modelTimer{id: id, due: elapsed() + d}
					tm := v.AfterFunc(d, func() {
						mu.Lock()
						fires = append(fires, firing{id: id, at: elapsed()})
						mu.Unlock()
					})
					timers = append(timers, tm)
					model = append(model, m)
				case op < 6 && len(timers) > 0: // stop
					i := rng.Intn(len(timers))
					wasPending := !model[i].fired && !model[i].stopped
					got := timers[i].Stop()
					if got != wasPending {
						t.Fatalf("step %d: Stop(#%d) = %v, model pending = %v", step, i, got, wasPending)
					}
					model[i].stopped = true
				default: // advance
					v.Advance(time.Duration(rng.Intn(40)) * time.Millisecond)
					consume(step)
				}
			}
			v.RunUntilIdle()
			v.Advance(time.Second) // flush everything still due
			consume(200)

			mu.Lock()
			defer mu.Unlock()

			// Fires are observed in nondecreasing virtual-time order.
			if !sort.SliceIsSorted(fires, func(i, j int) bool { return fires[i].at < fires[j].at }) {
				t.Fatalf("fires out of order: %v", fires)
			}
			// Exactly-once: every armed, never-stopped timer has fired
			// by now (the final Advance flushed a full second past any
			// due time); duplicates and post-Stop fires were caught in
			// consume.
			for i, m := range model {
				if !m.stopped && !m.fired {
					t.Fatalf("timer #%d due %v never fired", i, m.due)
				}
			}
		})
	}
}

// TestVirtualSleepNeverEarly pins the no-early-wake invariant for Sleep
// across randomized schedules.
func TestVirtualSleepNeverEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	v := NewVirtual()
	var mu sync.Mutex
	violations := 0
	for i := 0; i < 100; i++ {
		d := time.Duration(rng.Intn(200)) * time.Millisecond
		start := v.Now()
		v.Go(func() {
			_ = v.Sleep(context.Background(), d)
			mu.Lock()
			if v.Now().Sub(start) < d {
				violations++
			}
			mu.Unlock()
		})
	}
	v.RunUntilIdle()
	if violations > 0 {
		t.Fatalf("%d early wakes", violations)
	}
}

// TestWrappedContextSleeperWokenAtItsDeadline: a sleeper whose context is
// one of the clock's own under a context.WithValue layer (every traced
// call path adds one) is woken by the deadline event itself, under the
// clock's lock and with a busy credit — not through the Done channel some
// time after it. It used to be: the engine saw nobody runnable and went
// on firing, so the sleeper came round at whatever instant the engine
// had reached, or slept its whole hour, and RunUntilIdle could return
// with it still running.
func TestWrappedContextSleeperWokenAtItsDeadline(t *testing.T) {
	type key struct{}
	type wake struct {
		err     error
		at      time.Duration
		pending int
	}
	bg := context.Background()
	for round := 0; round < 300; round++ {
		v := NewVirtual()
		ctx := v.WithDeadline(bg, v.Now().Add(10*time.Millisecond))
		wrapped := context.WithValue(ctx, key{}, 1)
		woke := make(chan wake, 1)
		v.Go(func() {
			err := v.Sleep(wrapped, time.Hour)
			woke <- wake{err, elapsed(v), v.PendingEvents()}
		})
		v.Go(func() { _ = v.Sleep(bg, 20*time.Millisecond) })
		v.Go(func() { _ = v.Sleep(bg, 30*time.Millisecond) })
		v.RunUntilIdle()
		got := <-woke
		End(ctx)
		if want := (wake{context.DeadlineExceeded, 10 * time.Millisecond, 2}); got != want {
			t.Fatalf("round %d: woke with %v at %v, %d events pending; want %v at %v, %d pending",
				round, got.err, got.at, got.pending, want.err, want.at, want.pending)
		}
	}
}

// TestContextForgetsWokenWaiters: a waiter leaves its context's list when
// it wakes, not when the context ends. A long-lived context used to keep
// every waiter that had ever parked under it, and walk them all when it
// was cancelled.
func TestContextForgetsWokenWaiters(t *testing.T) {
	v := NewVirtual()
	ctx := v.WithDeadline(context.Background(), v.Now().Add(time.Hour))
	defer End(ctx)
	type key struct{}
	wrapped := context.WithValue(ctx, key{}, 1)
	v.Run(func() {
		for i := 0; i < 5000; i++ {
			if err := v.Sleep(ctx, time.Millisecond); err != nil {
				t.Errorf("Sleep: %v", err)
				return
			}
			if err := v.Sleep(wrapped, time.Millisecond); err != nil {
				t.Errorf("Sleep under a wrapper: %v", err)
				return
			}
		}
	})
	c := ctx.(*vctx)
	v.mu.Lock()
	defer v.mu.Unlock()
	listed := 0
	for w := c.firstWaiter; w != nil; w = w.next {
		listed++
	}
	if listed != 0 || c.lastWaiter != nil {
		t.Fatalf("%d waiters still listed under the context after 10,000 waits, want 0", listed)
	}
}

func noop() {}

// TestClockAllocBudget pins what the clock itself allocates for the
// things a placement does a dozen times: a sleep costs nothing (its
// waiter comes from a pool, its event is inside the waiter), a Go costs
// nothing (its event is one that fired before, its body runs on a parked
// worker), and a deadline costs the context alone — End is a function,
// not a closure made per deadline.
func TestClockAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	bg := context.Background()
	v := NewVirtual()
	measure := func(name string, budget float64, f func()) {
		t.Helper()
		f() // fill the waiter pool
		if got := testing.AllocsPerRun(200, f); got > budget {
			t.Errorf("%s: %.2f allocations, budget %v", name, got, budget)
		} else {
			t.Logf("%s: %.2f allocations (budget %v)", name, got, budget)
		}
	}
	v.Run(func() {
		// Below 1, not 0: the garbage collector may empty the pool mid-run.
		measure("virtual Sleep", 0.99, func() { _ = v.Sleep(bg, time.Millisecond) })
		// The sleep lets the body run before the next call.
		measure("virtual Go", 0.99, func() {
			v.Go(noop)
			_ = v.Sleep(bg, time.Nanosecond)
		})
		measure("virtual WithDeadline+End", 1, func() {
			End(v.WithDeadline(bg, v.Now().Add(time.Second)))
		})
		measure("virtual two nested contexts and a sleep", 2.99, func() {
			outer := v.WithDeadline(bg, v.Now().Add(time.Second))
			inner := v.WithDeadline(outer, v.Now().Add(time.Second))
			_ = v.Sleep(inner, time.Millisecond)
			End(inner)
			End(outer)
		})
	})
	measure("wall WithDeadline+End", 1, func() {
		End(Wall.WithDeadline(bg, Wall.Now().Add(time.Second)))
	})
	measure("wall two nested contexts", 2, func() {
		outer := Wall.WithDeadline(bg, Wall.Now().Add(time.Second))
		inner := Wall.WithDeadline(outer, Wall.Now().Add(time.Second))
		_ = inner.Err()
		End(inner)
		End(outer)
	})
}

// valueOnly wraps a context and adds nothing, as a telemetry span does.
type valueOnly struct{ context.Context }

func (w valueOnly) ValueParent() context.Context { return w.Context }

// TestOwnLooksThroughValueContexts: a clock finds its context behind
// layers that say they add only values, and asks none of them for a
// Done channel, so a clock context nobody waits on never makes one.
func TestOwnLooksThroughValueContexts(t *testing.T) {
	v := NewVirtual()
	ctx := v.WithDeadline(context.Background(), v.Now().Add(time.Second))
	defer End(ctx)
	c := ctx.(*vctx)
	if got := v.own(valueOnly{valueOnly{ctx}}); got != c {
		t.Fatalf("own through two value-only layers = %p, want %p", got, c)
	}
	if c.done != nil {
		t.Error("own made a Done channel for the clock context")
	}
	child := v.WithDeadline(valueOnly{ctx}, v.Now().Add(2*time.Second))
	defer End(child)
	if child.(*vctx).parent != c || c.done != nil {
		t.Errorf("a child derived under a value-only layer: parent %p, want %p; done channel made: %v",
			child.(*vctx).parent, c, c.done != nil)
	}
}

// elapsed is the virtual time v has run since its epoch.
func elapsed(v *Virtual) time.Duration { return v.Since(v.start) }
