package orb

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/vclock"
)

// skewedClock is the wall clock read a thousand hours ahead: a call that
// took its start from one clock and its duration from the other would
// report a duration of about that.
type skewedClock struct{ vclock.Clock }

const skew = 1000 * time.Hour

func (c skewedClock) Now() time.Time                  { return c.Clock.Now().Add(skew) }
func (c skewedClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// TestHooksFlipUnderCalls flips every hook a call reads while eight
// goroutines call. Under -race it shows the setters and Call share no
// unsynchronized word; the assertions show each call worked from one
// snapshot: a tracer is handed a duration measured on one clock, and a
// call either fails with the injector's error or succeeds, whatever was
// being installed around it.
func TestHooksFlipUnderCalls(t *testing.T) {
	rt := NewRuntime("uva")
	obj := newEcho(rt)
	ctx := context.Background()

	var traced, insane atomic.Int64
	tracer := func(_ string, _ loid.LOID, _ string, d time.Duration, _ error) {
		traced.Add(1)
		if d < 0 || d > time.Minute {
			insane.Add(1)
		}
	}
	injector := func(loid.LOID, string) error { return ErrInjectedFault }

	stop := make(chan struct{})
	var callers sync.WaitGroup
	var calls, faults atomic.Int64
	for i := 0; i < 8; i++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := rt.Call(ctx, obj.LOID(), "echo", 7)
				calls.Add(1)
				switch {
				case errors.Is(err, ErrInjectedFault):
					faults.Add(1)
				case err != nil || got != 7:
					t.Errorf("call under flipping hooks: %v, %v", got, err)
					return
				}
			}
		}()
	}

	for i := 0; i < 2000; i++ {
		on := i%2 == 0
		if on {
			rt.SetTracer(tracer)
			rt.SetClock(skewedClock{vclock.Wall})
			rt.SetLatency(time.Microsecond, time.Microsecond)
			rt.SetFaultInjector(injector)
		} else {
			rt.SetClock(nil)
			rt.SetTracer(nil)
			rt.SetFaultInjector(nil)
			rt.SetLatency(0, 0)
		}
		if c := rt.Clock(); c == nil {
			t.Fatal("Clock() is nil between setters")
		}
	}
	close(stop)
	callers.Wait()

	if insane.Load() != 0 {
		t.Errorf("%d of %d traced calls reported a duration measured across two clocks", insane.Load(), traced.Load())
	}
	t.Logf("%d calls, %d traced, %d injected faults", calls.Load(), traced.Load(), faults.Load())
}
