package fanout

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/vclock"
)

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, limit := range []int{1, 2, 8, 100} {
		n := 37
		counts := make([]int32, n)
		Do(vclock.Wall, limit, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Errorf("limit %d: index %d called %d times", limit, i, c)
			}
		}
	}
}

func TestDoBoundsConcurrency(t *testing.T) {
	const limit = 3
	var inflight, peak int32
	var mu sync.Mutex
	Do(vclock.Wall, limit, 20, func(int) {
		cur := atomic.AddInt32(&inflight, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&inflight, -1)
	})
	if peak > limit {
		t.Errorf("peak concurrency %d exceeds limit %d", peak, limit)
	}
	if peak < 2 {
		t.Errorf("peak concurrency %d: never actually parallel", peak)
	}
}

func TestDoSerialWhenLimitOne(t *testing.T) {
	// limit 1 must run in order on the calling goroutine: appending to a
	// plain slice with no synchronization is race-free only then (the
	// race detector guards this property).
	var order []int
	Do(vclock.Wall, 1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestDoSerialOnVirtualClock: under a virtual clock a fan-out of any
// width runs in index order on the calling goroutine, so fn may park on
// the clock — only registered goroutines may — and the plain slice below
// is race-free.
func TestDoSerialOnVirtualClock(t *testing.T) {
	vc := vclock.NewVirtual()
	start := vc.Now()
	var order []int
	vc.Run(func() {
		Do(vc, 8, 5, func(i int) {
			_ = vc.Sleep(context.Background(), time.Millisecond)
			order = append(order, i)
		})
	})
	if len(order) != 5 {
		t.Fatalf("order = %v", order)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v", order)
		}
	}
	if got := vc.Since(start); got != 5*time.Millisecond {
		t.Errorf("five serial 1ms sleeps took %v of virtual time", got)
	}
}

func TestDoZeroAndNegative(t *testing.T) {
	called := false
	Do(vclock.Wall, 4, 0, func(int) { called = true })
	Do(vclock.Wall, 0, -3, func(int) { called = true })
	if called {
		t.Error("fn called for empty range")
	}
}

func TestLimiterAdmitsUpToLimit(t *testing.T) {
	l := NewLimiter(3)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		if !l.TryGo(func() { defer wg.Done(); <-release }) {
			t.Fatalf("task %d refused below limit", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.InFlight() != 3 {
		if time.Now().After(deadline) {
			t.Fatal("admitted tasks never counted in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	if l.TryGo(func() {}) {
		t.Fatal("admitted past the limit")
	}
	close(release)
	wg.Wait()
	for l.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slots never released")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	if !l.TryGo(func() { close(done) }) {
		t.Fatal("refused after slots freed")
	}
	<-done
	if l.limit != 3 {
		t.Fatalf("limit = %d, want 3", l.limit)
	}
}

func TestLimiterRefusalIsNonBlocking(t *testing.T) {
	l := NewLimiter(1)
	release := make(chan struct{})
	defer close(release)
	var wg sync.WaitGroup
	wg.Add(1)
	if !l.TryGo(func() { defer wg.Done(); <-release }) {
		t.Fatal("first task refused")
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("task never started")
		}
		time.Sleep(time.Millisecond)
	}
	var ran atomic.Bool
	start := time.Now()
	if l.TryGo(func() { ran.Store(true) }) {
		t.Fatal("admitted past the limit")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("refusal blocked for %v", elapsed)
	}
	if ran.Load() {
		t.Fatal("refused task ran anyway")
	}
}

func TestLimiterPanicsOnBadLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLimiter(0) did not panic")
		}
	}()
	NewLimiter(0)
}

// parked is how many workers sit on the idle list.
func parked() int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return len(pool.idle)
}

// eventually polls cond until it holds, failing t with what after 5s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// runAndPark runs fn through l and returns once the worker that ran it
// is back on the idle list: the slot is released before the worker
// parks, so waiting for fn alone would let the next task miss it.
func runAndPark(t *testing.T, l *Limiter, fn func()) {
	t.Helper()
	want := max(parked(), 1)
	done := make(chan struct{})
	if !l.TryGo(func() { fn(); close(done) }) {
		t.Fatal("task refused")
	}
	<-done
	eventually(t, "worker never parked", func() bool { return l.InFlight() == 0 && parked() >= want })
}

// TestSpawnNeverQueuesBehindARunningTask: more tasks than workers can
// ever be parked all start while every one of them is still blocked, so
// no task waits for another to finish.
func TestSpawnNeverQueuesBehindARunningTask(t *testing.T) {
	const n = maxIdle + 10
	l := NewLimiter(n)
	release := make(chan struct{})
	var started atomic.Int32
	for i := 0; i < n; i++ {
		if !l.TryGo(func() { started.Add(1); <-release }) {
			t.Fatalf("task %d refused below the limit", i)
		}
	}
	eventually(t, "some task never started while the others were blocked",
		func() bool { return started.Load() == n })
	close(release)
	eventually(t, "slots never released", func() bool { return l.InFlight() == 0 })
}

// TestWorkersAreReused: tasks that follow one another run on the worker
// the last one parked, not on a goroutine each.
func TestWorkersAreReused(t *testing.T) {
	l := NewLimiter(1)
	base := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		runAndPark(t, l, func() {})
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Fatalf("%d goroutines after 10000 sequential tasks, started with %d", got, base)
	}
}

// TestIdleWorkersBounded: a burst far wider than maxIdle leaves at most
// maxIdle workers behind it.
func TestIdleWorkersBounded(t *testing.T) {
	const n = 4 * maxIdle
	base := runtime.NumGoroutine()
	l := NewLimiter(n)
	release := make(chan struct{})
	var started atomic.Int32
	for i := 0; i < n; i++ {
		if !l.TryGo(func() { started.Add(1); <-release }) {
			t.Fatalf("task %d refused below the limit", i)
		}
	}
	eventually(t, "burst never fully started", func() bool { return started.Load() == n })
	close(release)
	eventually(t, "workers past maxIdle never exited", func() bool {
		return l.InFlight() == 0 && runtime.NumGoroutine() <= base+maxIdle
	})
	if got := parked(); got > maxIdle {
		t.Fatalf("%d workers parked, bound %d", got, maxIdle)
	}
}

// pinned is a task's payload, large enough to be its own allocation.
type pinned struct{ b [1 << 20]byte }

// runPinned runs a task that captures a pinned with a finalizer and
// returns once its worker has parked; nothing of the task survives in
// the caller's frame.
func runPinned(t *testing.T, l *Limiter, finalized chan struct{}) {
	p := new(pinned)
	runtime.SetFinalizer(p, func(*pinned) { close(finalized) })
	runAndPark(t, l, func() { p.b[0] = 1 })
}

// TestParkedWorkerPinsNothing: what a task captured is collectable once
// it has returned, though the worker that ran it lives on.
func TestParkedWorkerPinsNothing(t *testing.T) {
	l := NewLimiter(1)
	finalized := make(chan struct{})
	runPinned(t, l, finalized)
	runtime.GC()
	runtime.GC()
	select {
	case <-finalized:
	case <-time.After(5 * time.Second):
		t.Fatal("a parked worker still holds its last task's capture")
	}
}

func TestDoUsesEveryIndexOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64} {
		for _, limit := range []int{1, 2, 8} {
			// Plain ints: fn(i) owns slot i, and the join orders the
			// read below after every write (the race detector checks).
			counts := make([]int, n)
			Do(vclock.Wall, limit, n, func(i int) { counts[i]++ })
			for i, c := range counts {
				if c != 1 {
					t.Errorf("n %d limit %d: index %d called %d times", n, limit, i, c)
				}
			}
		}
	}
}

// TestDoRoundAllocatesNothing: a round comes from a pool, so a warm
// fan-out on the wall clock allocates nothing of its own.
func TestDoRoundAllocatesNothing(t *testing.T) {
	var calls atomic.Int64
	fn := func(int) { calls.Add(1) }
	for i := 0; i < 10; i++ {
		Do(vclock.Wall, 2, 2, fn) // warm: park a worker, pool a round
	}
	if got := testing.AllocsPerRun(200, func() { Do(vclock.Wall, 2, 2, fn) }); got != 0 {
		t.Errorf("a width-2 Do allocates %.1f per call, want 0", got)
	}
}

// TestConcurrentDoRoundsStayApart: rounds are pooled, so two Do calls
// running at once must never share one. Each caller's fn must see
// exactly its own indices, each once.
func TestConcurrentDoRoundsStayApart(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		n := 16 + 3*g // a foreign index shows as one out of range
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				counts := make([]atomic.Int32, n)
				Do(vclock.Wall, 4, n, func(i int) {
					if i >= n {
						t.Errorf("width %d: fn got index %d", n, i)
						return
					}
					counts[i].Add(1)
				})
				for i := range counts {
					if c := counts[i].Load(); c != 1 {
						t.Errorf("width %d round %d: index %d called %d times", n, round, i, c)
					}
				}
			}
		}()
	}
	wg.Wait()
}
