package vclock

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// pinned is a body's capture, large enough to be its own allocation.
type pinned struct{ b [1 << 20]byte }

// goPinned runs on v a body that captures a pinned with a finalizer, and
// returns once the body's worker has parked; nothing of the body survives
// in the caller's frame.
func goPinned(v *Virtual, finalized chan struct{}) {
	p := new(pinned)
	runtime.SetFinalizer(p, func(*pinned) { close(finalized) })
	v.Go(func() { p.b[0] = 1 })
	v.RunUntilIdle()
}

// TestVirtualGoWorkerPinsNothing: what a Go body captured is collectable
// once the body has returned, though the worker that ran it is parked and
// the clock, with the go event it reuses, lives on.
func TestVirtualGoWorkerPinsNothing(t *testing.T) {
	v := NewVirtual()
	finalized := make(chan struct{})
	goPinned(v, finalized)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-finalized:
			runtime.KeepAlive(v)
			return
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a parked worker or a reused go event still holds the last body's capture")
		}
	}
}

// finishes runs drive on a goroutine of its own and fails t with what if
// it has not returned within 10 s: a clock that never goes quiet hangs
// whatever drives it.
func finishes(t *testing.T, what string, drive func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		drive()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal(what)
	}
}

// TestVirtualGoexitReleasesCredit: a Go body and an AfterFunc body that
// end in runtime.Goexit, as t.FailNow does, give back their busy credit,
// and the workers they ended are not handed the next body.
func TestVirtualGoexitReleasesCredit(t *testing.T) {
	v := NewVirtual()
	bg := context.Background()
	ran := false
	finishes(t, "the clock never went quiet: a body that ended in runtime.Goexit kept its busy credit, or a Go went to a worker that had exited", func() {
		v.Go(runtime.Goexit)
		v.AfterFunc(time.Millisecond, runtime.Goexit)
		v.Run(func() { _ = v.Sleep(bg, 2*time.Millisecond) })
		v.Go(func() { ran = true })
		v.RunUntilIdle()
	})
	if !ran {
		t.Fatal("the Go after the Goexits never ran")
	}
	if n := v.PendingEvents(); n != 0 {
		t.Fatalf("%d events pending, want 0", n)
	}
}

// TestVirtualIdleWorkersBounded: a burst of bodies four times the bound,
// parked at once on one Group and then released, leaves at most the
// bound of workers behind it.
func TestVirtualIdleWorkersBounded(t *testing.T) {
	const n = 4 * maxIdleWorkers
	base := runtime.NumGoroutine()
	v := NewVirtual()
	bg := context.Background()
	parked := 0
	v.Run(func() {
		release, all := v.NewGroup(), v.NewGroup()
		release.Add(1)
		all.Add(n)
		for i := 0; i < n; i++ {
			v.Go(func() {
				defer all.Done()
				if release.Wait(bg) == nil {
					parked++
				}
			})
		}
		_ = v.Sleep(bg, time.Millisecond) // every body parks on release
		release.Done()
		_ = all.Wait(bg)
	})
	if parked != n {
		t.Fatalf("%d bodies waited on the Group, want %d", parked, n)
	}
	workers.mu.Lock()
	got := len(workers.idle)
	workers.mu.Unlock()
	if got > maxIdleWorkers {
		t.Fatalf("%d workers parked, bound %d", got, maxIdleWorkers)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+maxIdleWorkers {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the burst, started with %d: workers past the bound never exited",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// seededTree runs a seeded tree of Gos, sleeps and AfterFuncs on a fresh
// clock and returns the clock's trace.
func seededTree(seed int64) []string {
	v := NewVirtual()
	v.StartTrace()
	rng := rand.New(rand.NewSource(seed))
	bg := context.Background()
	v.Run(func() {
		all := v.NewGroup()
		for i := 0; i < 100; i++ {
			d := time.Duration(rng.Intn(50)) * time.Microsecond
			all.Add(2)
			v.Go(func() {
				_ = v.Sleep(bg, d)
				v.AfterFunc(d/2, all.Done)
				all.Done()
			})
		}
		_ = all.Wait(bg)
	})
	return v.Trace()
}

// TestVirtualClocksShareWorkers: two clocks driven at once from two
// goroutines hand their bodies to one idle list, and each still traces
// exactly what it traces alone.
func TestVirtualClocksShareWorkers(t *testing.T) {
	seeds := []int64{1, 2}
	alone := make([][]string, len(seeds))
	finishes(t, "a clock run alone never went quiet", func() {
		for i, seed := range seeds {
			alone[i] = seededTree(seed)
		}
	})
	if slices.Equal(alone[0], alone[1]) {
		t.Fatal("the two seeds trace the same: the test would not see a swap")
	}
	for round := 0; round < 5; round++ {
		together := make([][]string, len(seeds))
		finishes(t, "the two clocks never both went quiet: a busy credit went back to the wrong clock", func() {
			var wg sync.WaitGroup
			for i, seed := range seeds {
				wg.Add(1)
				go func() {
					defer wg.Done()
					together[i] = seededTree(seed)
				}()
			}
			wg.Wait()
		})
		for i, seed := range seeds {
			if !slices.Equal(together[i], alone[i]) {
				t.Fatalf("round %d: seed %d traced %d events beside another clock, %d alone, or in another order",
					round, seed, len(together[i]), len(alone[i]))
			}
		}
	}
}
