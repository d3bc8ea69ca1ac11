package enactor

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/resilient"
	"legion/internal/sched"
	"legion/internal/vclock"
)

// waitUntil polls cond for up to 2s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// queueLen is how many calls wait at the gate.
func queueLen(a *admission) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiting)
}

func TestAdmissionDisabledByDefault(t *testing.T) {
	e := newEnv(t, 1, nil)
	if e.enactor.adm.enabled() {
		t.Fatal("admission gate enabled without MaxInFlight")
	}
	release, err := e.enactor.adm.acquire(context.Background(), "make_reservations", "d", "", 0)
	if err != nil {
		t.Fatalf("disabled gate refused: %v", err)
	}
	release()
}

// TestExpiredContextNeverReachesDownstream is the property test for the
// admission gate's "expired" shed: across many randomized already-dead
// contexts (expired deadline or cancelled, random priority), a
// make_reservations call through the wire-facing handler must never
// perform downstream negotiation work — zero reservations requested at
// the Enactor, zero tokens on any Host — and must refuse with the typed
// proto.ErrOverload.
func TestExpiredContextNeverReachesDownstream(t *testing.T) {
	e := newEnv(t, 2, nil)
	// Rebuild the enactor with the gate enabled.
	enr := New(e.rt, Config{CallTimeout: 5 * time.Second, MaxInFlight: 4})
	rng := rand.New(rand.NewSource(11))
	ctxBg := context.Background()

	for i := 0; i < 60; i++ {
		var ctx context.Context
		var cancel context.CancelFunc
		if rng.Intn(2) == 0 {
			// Deadline already in the past by a random margin.
			past := time.Duration(1+rng.Intn(5000)) * time.Microsecond
			ctx, cancel = context.WithDeadline(ctxBg, time.Now().Add(-past))
		} else {
			ctx, cancel = context.WithCancel(ctxBg)
			cancel()
		}
		req := sched.RequestList{
			ID:      enr.NewRequestID(),
			Masters: []sched.Master{{Mappings: []sched.Mapping{e.mapping(rng.Intn(2))}}},
			Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour, Priority: rng.Intn(5)},
		}
		_, err := e.rt.Call(ctx, enr.LOID(), proto.MethodMakeReservations,
			proto.MakeReservationsArgs{Request: req, RequesterDomain: "dead"})
		if !errors.Is(err, proto.ErrOverload) {
			t.Fatalf("case %d: err = %v, want ErrOverload", i, err)
		}
		cancel()
	}

	if st := enr.TotalStats(); st.ReservationsRequested != 0 {
		t.Fatalf("expired contexts drove %d downstream reservation calls", st.ReservationsRequested)
	}
	for i, h := range e.hosts {
		if n := h.ActiveReservations(); n != 0 {
			t.Fatalf("host %d leaked %d reservations from shed requests", i, n)
		}
	}
	reg := e.rt.Metrics()
	if n := reg.CounterValue("legion_admission_sheds_total", "reason", "expired"); n != 60 {
		t.Fatalf("expired sheds = %v, want 60", n)
	}
}

// TestAdmissionPriorityOrderAndQueueFull fills the single slot and the
// two-deep queue, verifies the overflow shed, and checks that queued
// waiters dispatch highest-priority-first when the slot frees.
func TestAdmissionPriorityOrderAndQueueFull(t *testing.T) {
	e := newEnv(t, 1, nil)
	enr := New(e.rt, Config{CallTimeout: 5 * time.Second, MaxInFlight: 1, AdmissionQueue: 2})
	a := enr.adm
	ctx := context.Background()

	holdRelease, err := a.acquire(ctx, "make_reservations", "d0", "", 0)
	if err != nil {
		t.Fatalf("slot acquire: %v", err)
	}

	var order []string
	var orderMu sync.Mutex
	var wg sync.WaitGroup
	spawn := func(name string, prio int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, aerr := a.acquire(ctx, "make_reservations", name, "", prio)
			if aerr != nil {
				t.Errorf("%s shed: %v", name, aerr)
				return
			}
			orderMu.Lock()
			order = append(order, name)
			orderMu.Unlock()
			rel()
		}()
	}
	spawn("low", 1)
	waitUntil(t, "low queued", func() bool { return queueLen(a) == 1 })
	spawn("high", 5)
	waitUntil(t, "high queued", func() bool { return queueLen(a) == 2 })

	// Queue is at capacity: even a top-priority request is shed.
	if _, err := a.acquire(ctx, "make_reservations", "vip", "", 9); !errors.Is(err, proto.ErrOverload) {
		t.Fatalf("overflow acquire: %v, want ErrOverload", err)
	}
	if n := e.rt.Metrics().CounterValue("legion_admission_sheds_total", "reason", "queue_full"); n != 1 {
		t.Fatalf("queue_full sheds = %v, want 1", n)
	}

	holdRelease()
	wg.Wait()
	orderMu.Lock()
	defer orderMu.Unlock()
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("dispatch order = %v, want [high low]", order)
	}
}

// TestAdmissionFairShare verifies one domain cannot pack the wait-queue:
// with depth 4 and one active domain its share is 4/(1+1)=2, so a third
// waiter from the same domain is shed while a newcomer domain still gets
// in.
func TestAdmissionFairShare(t *testing.T) {
	e := newEnv(t, 1, nil)
	enr := New(e.rt, Config{CallTimeout: 5 * time.Second, MaxInFlight: 1, AdmissionQueue: 4})
	a := enr.adm
	ctx := context.Background()

	holdRelease, err := a.acquire(ctx, "make_reservations", "slot", "", 0)
	if err != nil {
		t.Fatalf("slot acquire: %v", err)
	}
	var wg sync.WaitGroup
	queueUp := func(domain string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, aerr := a.acquire(ctx, "make_reservations", domain, "", 0)
			if aerr != nil {
				t.Errorf("%s waiter shed: %v", domain, aerr)
				return
			}
			rel()
		}()
	}
	queueUp("greedy")
	waitUntil(t, "first greedy queued", func() bool { return queueLen(a) == 1 })
	queueUp("greedy")
	waitUntil(t, "second greedy queued", func() bool { return queueLen(a) == 2 })

	// Greedy is at its share (4 / (1 active + 1) = 2): shed.
	if _, err := a.acquire(ctx, "make_reservations", "greedy", "", 0); !errors.Is(err, proto.ErrOverload) {
		t.Fatalf("over-share acquire: %v, want ErrOverload", err)
	}
	if n := e.rt.Metrics().CounterValue("legion_admission_sheds_total", "reason", "fair_share"); n != 1 {
		t.Fatalf("fair_share sheds = %v, want 1", n)
	}

	// A different domain still gets a queue slot.
	queueUp("meek")
	waitUntil(t, "meek queued", func() bool { return queueLen(a) == 3 })

	holdRelease()
	wg.Wait()
}

// TestAdmissionDeadlineAwareShed verifies a queued-wait estimate beyond
// the request's remaining deadline sheds immediately instead of queuing
// work that will expire in line.
// TestAdmissionDeadlineAwareShed runs the EWMA deadline-shed arithmetic
// on the virtual clock: the doomed/roomy distinction is a deterministic
// comparison of estimated wait against virtual deadlines, and the
// queued-waiter handoff is serialized by the clock engine instead of
// being poll-waited on the wall clock.
func TestAdmissionDeadlineAwareShed(t *testing.T) {
	e := newEnv(t, 1, nil)
	vc := vclock.NewVirtual()
	e.rt.SetClock(vc)
	enr := New(e.rt, Config{CallTimeout: 5 * time.Second, MaxInFlight: 1, AdmissionQueue: 8})
	a := enr.adm

	vc.Run(func() {
		ctx := context.Background()
		holdRelease, err := a.acquire(ctx, "make_reservations", "d0", "", 0)
		if err != nil {
			t.Errorf("slot acquire: %v", err)
			return
		}

		// Seed the service-time estimate: one second per call, one slot.
		a.mu.Lock()
		a.ewmaSvcNs = float64(time.Second)
		a.mu.Unlock()

		dctx := vc.WithDeadline(ctx, vc.Now().Add(50*time.Millisecond))
		defer vclock.End(dctx)
		if _, err := a.acquire(dctx, "make_reservations", "d1", "", 0); !errors.Is(err, proto.ErrOverload) {
			t.Errorf("doomed-deadline acquire: %v, want ErrOverload", err)
		}
		if n := e.rt.Metrics().CounterValue("legion_admission_sheds_total", "reason", "deadline"); n != 1 {
			t.Errorf("deadline sheds = %v, want 1", n)
		}

		// A deadline with room to wait is queued, not shed.
		roomy := vc.WithDeadline(ctx, vc.Now().Add(10*time.Second))
		defer vclock.End(roomy)
		// The waiter is joined through the clock: its wake is an event,
		// which fires only once this goroutine has parked.
		waiter := vc.NewGroup()
		waiter.Add(1)
		var aerr error
		vc.Go(func() {
			defer waiter.Done()
			var rel func()
			if rel, aerr = a.acquire(roomy, "make_reservations", "d1", "", 0); aerr == nil {
				rel()
			}
		})
		// One virtual millisecond: the engine starts the waiter, which
		// enqueues and parks, before this sleep returns.
		if err := vc.Sleep(ctx, time.Millisecond); err != nil {
			t.Errorf("sleep: %v", err)
		}
		if n := queueLen(a); n != 1 {
			t.Errorf("queue length = %d, want 1", n)
		}
		holdRelease()
		if err := waiter.Wait(ctx); err != nil {
			t.Errorf("joining the waiter: %v", err)
		}
		if aerr != nil {
			t.Errorf("roomy waiter shed: %v", aerr)
		}
	})
}

// TestShedEnactDoesNotPoisonIdempotency: an enact_schedule shed by the
// gate records no outcome, so a later retry (when load clears) still
// enacts successfully.
func TestShedEnactDoesNotPoisonIdempotency(t *testing.T) {
	e := newEnv(t, 1, nil)
	enr := New(e.rt, Config{CallTimeout: 5 * time.Second, MaxInFlight: 1, AdmissionQueue: 1})
	ctx := context.Background()

	req := sched.RequestList{
		ID:      enr.NewRequestID(),
		Masters: []sched.Master{{Mappings: []sched.Mapping{e.mapping(0)}}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	res, err := e.rt.Call(ctx, enr.LOID(), proto.MethodMakeReservations,
		proto.MakeReservationsArgs{Request: req, RequesterDomain: "uva"})
	if err != nil || !res.(proto.FeedbackReply).Feedback.Success {
		t.Fatalf("make_reservations: %v %+v", err, res)
	}

	// Saturate: hold the slot and the queue, then the enact is shed.
	hold1, err := enr.adm.acquire(ctx, "make_reservations", "x", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan struct{})
	go func() {
		rel, aerr := enr.adm.acquire(ctx, "make_reservations", "y", "", 0)
		if aerr == nil {
			defer rel()
		}
		<-blocked
	}()
	waitUntil(t, "queue filled", func() bool { return queueLen(enr.adm) == 1 })

	_, err = e.rt.Call(ctx, enr.LOID(), proto.MethodEnactSchedule, proto.EnactScheduleArgs{RequestID: req.ID})
	if !errors.Is(err, proto.ErrOverload) {
		t.Fatalf("saturated enact: %v, want ErrOverload", err)
	}

	// Load clears; the retry must succeed (no recorded failed outcome).
	hold1()
	close(blocked)
	res, err = e.rt.Call(ctx, enr.LOID(), proto.MethodEnactSchedule, proto.EnactScheduleArgs{RequestID: req.ID})
	if err != nil {
		t.Fatalf("retry enact: %v", err)
	}
	if r := res.(proto.EnactReply); !r.Success || len(r.Instances) != 1 {
		t.Fatalf("retry enact reply: %+v", r)
	}
}

// TestShedsClassifyPermanentAndNeverOpenBreakers drives shed after shed
// through a resilient caller across a real TCP hop and asserts (a) the
// refusal classifies permanent — no in-place retries burning the budget
// — and (b) the Enactor endpoint's breaker stays closed: a shedding
// server is alive, and opening its breaker would amplify the overload.
func TestShedsClassifyPermanentAndNeverOpenBreakers(t *testing.T) {
	e := newEnv(t, 1, nil)
	enr := New(e.rt, Config{CallTimeout: 5 * time.Second, MaxInFlight: 1, AdmissionQueue: 1})
	addr, err := e.rt.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.rt.Close()

	// Saturate the gate from the server side.
	ctx := context.Background()
	hold, err := enr.adm.acquire(ctx, "make_reservations", "local", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	blocked := make(chan struct{})
	defer close(blocked)
	go func() {
		rel, aerr := enr.adm.acquire(ctx, "make_reservations", "local", "", 0)
		if aerr == nil {
			defer rel()
		}
		<-blocked
	}()
	waitUntil(t, "queue filled", func() bool { return queueLen(enr.adm) == 1 })

	remote := orb.NewRuntime("nova")
	defer remote.Close()
	remote.Bind(enr.LOID(), addr)
	breakers := resilient.NewBreakerSet(resilient.BreakerConfig{FailureThreshold: 3}, nil)
	caller := resilient.NewCaller(remote, resilient.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}, breakers)

	var attempts atomic.Int64
	for i := 0; i < 20; i++ {
		req := sched.RequestList{
			ID:      enr.NewRequestID(),
			Masters: []sched.Master{{Mappings: []sched.Mapping{e.mapping(0)}}},
			Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
		}
		_, cerr := caller.Call(ctx, enr.LOID(), proto.MethodMakeReservations,
			proto.MakeReservationsArgs{Request: req, RequesterDomain: "nova"})
		attempts.Add(1)
		if cerr == nil {
			t.Fatalf("call %d unexpectedly admitted through a saturated gate", i)
		}
		if errors.Is(cerr, resilient.ErrCircuitOpen) {
			t.Fatalf("call %d: breaker opened by shedding: %v", i, cerr)
		}
		if got := resilient.Classify(cerr); got != resilient.ClassPermanent {
			t.Fatalf("call %d: shed classified %v, want permanent: %v", i, got, cerr)
		}
	}
	if st := breakers.ForLOID(enr.LOID()).State(); st != resilient.Closed {
		t.Fatalf("enactor breaker state = %v after 20 sheds, want Closed", st)
	}
}

// TestAdmissionConcurrentStress hammers the gate from many goroutines
// with mixed domains, priorities, and deadlines (run under -race in CI's
// main job). Afterwards the gate must be fully drained: no
// in-flight slots, empty queue, empty fair-share accounts, and
// admitted + sheds == offered.
func TestAdmissionConcurrentStress(t *testing.T) {
	e := newEnv(t, 1, nil)
	enr := New(e.rt, Config{CallTimeout: 5 * time.Second, MaxInFlight: 4, AdmissionQueue: 8})
	a := enr.adm

	const workers = 16
	const perWorker = 50
	domains := []string{"uva", "nova", "vt", ""}
	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch rng.Intn(3) {
				case 0:
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3))*time.Millisecond)
				case 1:
					ctx, cancel = context.WithTimeout(ctx, time.Second)
				}
				rel, err := a.acquire(ctx, "make_reservations", domains[rng.Intn(len(domains))], "", rng.Intn(4))
				if err == nil {
					admitted.Add(1)
					if rng.Intn(2) == 0 {
						time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
					}
					rel()
				} else {
					if !errors.Is(err, proto.ErrOverload) {
						t.Errorf("worker %d: non-overload refusal: %v", w, err)
					}
					shed.Add(1)
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()

	if got := admitted.Load() + shed.Load(); got != workers*perWorker {
		t.Fatalf("admitted %d + shed %d = %d, want %d", admitted.Load(), shed.Load(), got, workers*perWorker)
	}
	a.mu.Lock()
	running, queued, leftover := a.running, len(a.waiting), len(a.byDomain)
	a.mu.Unlock()
	if running != 0 || queued != 0 {
		t.Fatalf("gate not drained: %d running, %d queued", running, queued)
	}
	if leftover != 0 {
		t.Fatalf("fair-share accounts leaked: %d domains still counted", leftover)
	}
	if admitted.Load() == 0 {
		t.Fatal("stress admitted nothing; gate is over-shedding")
	}
}
