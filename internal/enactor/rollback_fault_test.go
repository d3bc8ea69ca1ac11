package enactor

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/resilient"
)

// TestEnactRollbackUnderInjectedFaults wounds create_instance partway
// through enactment and verifies all-or-nothing semantics hold under
// transport faults: every already-created object is destroyed, every
// reservation is released, and the system drains to its pre-request
// state.
func TestEnactRollbackUnderInjectedFaults(t *testing.T) {
	e := newEnv(t, 2, nil)
	ctx := context.Background()
	req := e.request(e.mapping(0), e.mapping(1), e.mapping(0))

	fb := e.enactor.MakeReservations(ctx, req)
	if !fb.Success {
		t.Fatalf("reservations: %+v", fb)
	}

	// The first create_instance succeeds; every later one fails with an
	// injected transport fault until the retry budget (NeverReached
	// retries included) is exhausted.
	var mu sync.Mutex
	creates := 0
	e.rt.SetFaultInjector(func(target loid.LOID, method string) error {
		if method != proto.MethodCreateInstance {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		creates++
		if creates > 1 {
			return orb.ErrInjectedFault
		}
		return nil
	})

	reply := e.enactor.EnactSchedule(ctx, req.ID)
	e.rt.SetFaultInjector(nil)
	if reply.Success {
		t.Fatal("enact succeeded despite persistent create faults")
	}
	if !strings.Contains(reply.Detail, "injected fault") {
		t.Errorf("failure detail lost the cause: %q", reply.Detail)
	}

	// All-or-nothing: the one created object was destroyed again...
	if n := e.hosts[0].RunningCount() + e.hosts[1].RunningCount(); n != 0 {
		t.Errorf("objects leaked after rollback: %d running", n)
	}
	if n := len(e.class.Instances()); n != 0 {
		t.Errorf("class still manages %d instances", n)
	}
	// ...and no reservation stayed held.
	for i, h := range e.hosts {
		h.ReapReservations()
		if n := h.ActiveReservations(); n != 0 {
			t.Errorf("host %d holds %d reservations after rollback", i, n)
		}
	}
	// The failed request is gone: re-enacting it is an error, not a
	// replay.
	if r2 := e.enactor.EnactSchedule(ctx, req.ID); r2.Success {
		t.Error("enact of a rolled-back request succeeded")
	}
}

// TestEnactRetriesTransientCreateFault verifies the inverse: a fault
// that never reached the class object is retried and the enactment
// completes with no duplicate objects.
func TestEnactRetriesTransientCreateFault(t *testing.T) {
	e := newEnv(t, 2, nil)
	ctx := context.Background()
	req := e.request(e.mapping(0), e.mapping(1))

	if fb := e.enactor.MakeReservations(ctx, req); !fb.Success {
		t.Fatalf("reservations: %+v", fb)
	}

	// Exactly one blip on the first create attempt.
	var mu sync.Mutex
	faulted := false
	e.rt.SetFaultInjector(func(target loid.LOID, method string) error {
		if method != proto.MethodCreateInstance {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if !faulted {
			faulted = true
			return orb.ErrInjectedFault
		}
		return nil
	})
	defer e.rt.SetFaultInjector(nil)

	reply := e.enactor.EnactSchedule(ctx, req.ID)
	if !reply.Success {
		t.Fatalf("enact did not absorb a transient create fault: %+v", reply)
	}
	if n := e.hosts[0].RunningCount() + e.hosts[1].RunningCount(); n != 2 {
		t.Errorf("running = %d, want exactly 2 (no duplicates)", n)
	}
}

// TestDefaultPolicyAbsorbsOneBlip: the default retry policy absorbs a
// single transient fault on a reservation call.
func TestDefaultPolicyAbsorbsOneBlip(t *testing.T) {
	rtEnv := newEnv(t, 1, nil)
	ctx := context.Background()

	var mu sync.Mutex
	faulted := false
	rtEnv.rt.SetFaultInjector(func(target loid.LOID, method string) error {
		mu.Lock()
		defer mu.Unlock()
		if method == proto.MethodMakeReservation && !faulted {
			faulted = true
			return orb.ErrInjectedFault
		}
		return nil
	})
	defer rtEnv.rt.SetFaultInjector(nil)

	e := New(rtEnv.rt, Config{Retry: resilient.Policy{BaseDelay: time.Millisecond}})
	req := rtEnv.request(rtEnv.mapping(0))
	req.ID = e.NewRequestID()
	if fb := e.MakeReservations(ctx, req); !fb.Success {
		t.Fatalf("enactor failed on one blip: %+v", fb)
	}
	mu.Lock()
	defer mu.Unlock()
	if !faulted {
		t.Error("the blip was never injected")
	}
}
