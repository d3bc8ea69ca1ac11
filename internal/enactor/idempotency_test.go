package enactor

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/proto"
)

// TestConcurrentEnactRunsOnce races many enact_schedule invocations for
// the same request (the orb server dispatches each request on its own
// goroutine, and the Wrapper retries after an attempt timeout while the
// first invocation may still be executing): exactly one create_instance
// pass must run, and every caller must observe the same outcome.
func TestConcurrentEnactRunsOnce(t *testing.T) {
	e := newEnv(t, 2, nil)
	ctx := context.Background()
	req := e.request(e.mapping(0), e.mapping(1))
	if fb := e.enactor.MakeReservations(ctx, req); !fb.Success {
		t.Fatalf("reserve: %+v", fb)
	}

	// Widen the race window: every call now takes a little while, so all
	// callers arrive while the first enactment is still in flight.
	e.rt.SetLatency(10*time.Millisecond, 0)
	defer e.rt.SetLatency(0, 0)

	const callers = 8
	replies := make([]proto.EnactReply, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = e.enactor.EnactSchedule(ctx, req.ID)
		}(i)
	}
	wg.Wait()

	for i, r := range replies {
		if !r.Success || len(r.Instances) != 2 {
			t.Fatalf("caller %d: %+v", i, r)
		}
		for j := range r.Instances {
			if r.Instances[j][0] != replies[0].Instances[j][0] {
				t.Errorf("caller %d saw different instance for mapping %d", i, j)
			}
		}
	}
	// Exactly one enactment ran: one instance per mapping, no duplicates
	// leaked by a second concurrent create_instance pass.
	if e.hosts[0].RunningCount() != 1 || e.hosts[1].RunningCount() != 1 {
		t.Errorf("duplicated instances: host0=%d host1=%d",
			e.hosts[0].RunningCount(), e.hosts[1].RunningCount())
	}
}

// TestFailedEnactOutcomeRecorded verifies a failed enactment is final:
// rollback cancelled the reservations, so a retry returns the recorded
// failure without re-running create_instance against dead tokens.
func TestFailedEnactOutcomeRecorded(t *testing.T) {
	e := newEnv(t, 1, nil)
	ctx := context.Background()
	req := e.request(e.mapping(0))
	if fb := e.enactor.MakeReservations(ctx, req); !fb.Success {
		t.Fatalf("reserve: %+v", fb)
	}

	var mu sync.Mutex
	creates := 0
	e.rt.SetFaultInjector(func(target loid.LOID, method string) error {
		if method != proto.MethodCreateInstance {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		creates++
		return errors.New("class object rejects the placement")
	})
	defer e.rt.SetFaultInjector(nil)

	first := e.enactor.EnactSchedule(ctx, req.ID)
	if first.Success {
		t.Fatalf("enact succeeded despite permanent create failure")
	}
	mu.Lock()
	after := creates
	mu.Unlock()

	second := e.enactor.EnactSchedule(ctx, req.ID)
	if second.Success || second.Detail != first.Detail {
		t.Errorf("retry outcome diverged: first=%+v second=%+v", first, second)
	}
	mu.Lock()
	defer mu.Unlock()
	if creates != after {
		t.Errorf("retry re-ran create_instance: %d calls, want %d", creates, after)
	}
}

// TestRequestReaperDropsAbandonedEpisodes: the Wrapper mints a fresh
// request ID per make_reservations transport attempt, so orphaned
// episodes must be swept after the TTL instead of growing without bound
// — while successfully enacted requests are retained.
func TestRequestReaperDropsAbandonedEpisodes(t *testing.T) {
	env := newEnv(t, 1, nil)
	e := New(env.rt, Config{CallTimeout: 5 * time.Second, RequestTTL: 10 * time.Millisecond})
	ctx := context.Background()

	abandoned := env.request(env.mapping(0))
	abandoned.ID = e.NewRequestID()
	if fb := e.MakeReservations(ctx, abandoned); !fb.Success {
		t.Fatalf("reserve abandoned: %+v", fb)
	}
	enacted := env.request(env.mapping(0))
	enacted.ID = e.NewRequestID()
	if fb := e.MakeReservations(ctx, enacted); !fb.Success {
		t.Fatalf("reserve enacted: %+v", fb)
	}
	if r := e.EnactSchedule(ctx, enacted.ID); !r.Success {
		t.Fatalf("enact: %+v", r)
	}

	time.Sleep(20 * time.Millisecond)
	if n := e.ReapRequests(); n != 1 {
		t.Fatalf("reaped %d entries, want 1", n)
	}
	if _, err := e.Enacted(abandoned.ID); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("abandoned episode survived the reaper: err=%v", err)
	}
	if got, err := e.Enacted(enacted.ID); err != nil || len(got) != 1 {
		t.Errorf("enacted episode was reaped: %v %v", got, err)
	}

	// The sweep also runs lazily on MakeReservations.
	again := env.request(env.mapping(0))
	again.ID = e.NewRequestID()
	if fb := e.MakeReservations(ctx, again); !fb.Success {
		t.Fatalf("reserve again: %+v", fb)
	}
	time.Sleep(20 * time.Millisecond)
	final := env.request(env.mapping(0))
	final.ID = e.NewRequestID()
	if fb := e.MakeReservations(ctx, final); !fb.Success {
		t.Fatalf("reserve final: %+v", fb)
	}
	if _, err := e.Enacted(again.ID); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("lazy sweep missed the abandoned episode: err=%v", err)
	}
}

// TestDefaultAttemptTimeoutSplitsBudget: a hung Host must not consume
// the whole budget in one attempt, so each of the three default attempts
// gets a third of the CallTimeout.
func TestDefaultAttemptTimeoutSplitsBudget(t *testing.T) {
	env := newEnv(t, 1, nil)
	e := New(env.rt, Config{CallTimeout: 30 * time.Second})
	if p := e.call.Policy(); p.AttemptTimeout != 10*time.Second {
		t.Errorf("AttemptTimeout = %v, want Budget/3 = 10s", p.AttemptTimeout)
	}
}
