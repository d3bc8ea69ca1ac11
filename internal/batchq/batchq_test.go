package batchq

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/vclock"
)

func TestImmediateDispatchWhenSlotsFree(t *testing.T) {
	q := New(Config{Name: "test", Slots: 2})
	var started []JobID
	onStart := func(id JobID) { started = append(started, id) }
	id1, err := q.Submit("a", 0, onStart)
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := q.Submit("b", 0, onStart)
	if len(started) != 2 || started[0] != id1 || started[1] != id2 {
		t.Fatalf("started = %v", started)
	}
	st := q.Stats()
	if st.Running != 2 || st.Queued != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueueingBeyondSlots(t *testing.T) {
	q := New(Config{Name: "test", Slots: 1})
	var started []string
	submit := func(name string) JobID {
		id, _ := q.Submit(name, 0, func(JobID) { started = append(started, name) })
		return id
	}
	a := submit("a")
	submit("b")
	submit("c")
	if len(started) != 1 || started[0] != "a" {
		t.Fatalf("started = %v", started)
	}
	if q.QueueLength() != 2 {
		t.Fatalf("QueueLength = %d", q.QueueLength())
	}
	if err := q.Complete(a); err != nil {
		t.Fatal(err)
	}
	// FCFS: b before c.
	if len(started) != 2 || started[1] != "b" {
		t.Fatalf("after complete, started = %v", started)
	}
}

func TestPriorityOrdering(t *testing.T) {
	q := New(Config{Name: "test", Slots: 1, Policy: Priority})
	var order []string
	var runningID atomic.Uint64
	mk := func(name string, prio int) {
		q.Submit(name, prio, func(id JobID) {
			order = append(order, name)
			runningID.Store(uint64(id))
		})
	}
	mk("first", 0) // dispatches immediately, occupying the slot
	mk("low", 1)
	mk("high", 10)
	mk("mid", 5)
	mk("high2", 10)
	// Complete the runner four times; each completion dispatches the next
	// job by priority (FCFS within equal priorities).
	for i := 0; i < 4; i++ {
		if err := q.Complete(JobID(runningID.Load())); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"first", "high", "high2", "mid", "low"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDispatchDelay(t *testing.T) {
	q := New(Config{Name: "test", Slots: 1, DispatchDelay: 30 * time.Millisecond})
	defer q.Close()
	started := make(chan time.Time, 1)
	t0 := time.Now()
	q.Submit("a", 0, func(JobID) { started <- time.Now() })
	select {
	case ts := <-started:
		if d := ts.Sub(t0); d < 25*time.Millisecond {
			t.Errorf("dispatched after %v, want >= ~30ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("job never dispatched")
	}
	st := q.Stats()
	if st.Running != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	q := New(Config{Name: "test", Slots: 1})
	a, _ := q.Submit("a", 0, nil)
	b, _ := q.Submit("b", 0, nil)
	cStarted := false
	q.Submit("c", 0, func(JobID) { cStarted = true })

	if err := q.Cancel(b); err != nil {
		t.Fatal(err)
	}
	if s, _ := q.State(b); s != StateCancelled {
		t.Errorf("state(b) = %v", s)
	}
	q.Complete(a)
	if !cStarted {
		t.Error("c should start after a completes (b cancelled)")
	}
}

func TestCancelRunningJobFreesSlot(t *testing.T) {
	q := New(Config{Name: "test", Slots: 1})
	a, _ := q.Submit("a", 0, nil)
	bStarted := false
	q.Submit("b", 0, func(JobID) { bStarted = true })
	if err := q.Cancel(a); err != nil {
		t.Fatal(err)
	}
	if !bStarted {
		t.Error("b should start after a cancelled")
	}
}

func TestCancelDelayedDispatchFreesSlot(t *testing.T) {
	q := New(Config{Name: "test", Slots: 1, DispatchDelay: 20 * time.Millisecond})
	defer q.Close()
	aStarted := make(chan struct{})
	bStarted := make(chan struct{})
	a, _ := q.Submit("a", 0, func(JobID) { close(aStarted) })
	q.Submit("b", 0, func(JobID) { close(bStarted) })
	// Cancel a while its dispatch timer is pending.
	if err := q.Cancel(a); err != nil {
		t.Fatal(err)
	}
	select {
	case <-bStarted:
	case <-time.After(2 * time.Second):
		t.Fatal("b never dispatched after cancelling a")
	}
	select {
	case <-aStarted:
		t.Error("cancelled job a started anyway")
	default:
	}
}

func TestErrorPaths(t *testing.T) {
	q := New(Config{Name: "test", Slots: 1})
	if err := q.Complete(99); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Complete(unknown) = %v", err)
	}
	if err := q.Cancel(99); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel(unknown) = %v", err)
	}
	if _, err := q.State(99); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("State(unknown) = %v", err)
	}
	a, _ := q.Submit("a", 0, nil)
	q.Complete(a)
	if err := q.Complete(a); err == nil {
		t.Error("double Complete succeeded")
	}
	if err := q.Cancel(a); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel(done) = %v", err)
	}
	// Completing a queued (not yet running) job is an error.
	q.Submit("b", 0, nil) // running
	c, _ := q.Submit("c", 0, nil)
	if err := q.Complete(c); err == nil {
		t.Error("Complete(queued) succeeded")
	}
}

func TestCloseRejectsSubmit(t *testing.T) {
	q := New(Config{Name: "test", Slots: 1})
	q.Close()
	if _, err := q.Submit("a", 0, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after close = %v", err)
	}
}

func TestWaitAccounting(t *testing.T) {
	vc := vclock.NewVirtualAt(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC))
	q := New(Config{Name: "test", Slots: 1, Clock: vc})

	a, _ := q.Submit("a", 0, nil) // starts at t=0, wait 0
	q.Submit("b", 0, nil)         // queued
	vc.Advance(10 * time.Second)
	q.Complete(a) // b starts at t=10s, wait 10s
	st := q.Stats()
	if st.TotalWait != 10*time.Second {
		t.Errorf("TotalWait = %v, want 10s", st.TotalWait)
	}
	if st.Done != 1 {
		t.Errorf("Done = %d", st.Done)
	}
}

func TestNewPanicsOnBadSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New(Config{Name: "bad", Slots: 0})
}

func TestConcurrentSubmitCompleteStress(t *testing.T) {
	q := New(Config{Name: "stress", Slots: 4})
	var running sync.Map
	var maxRunning atomic.Int64
	var cur atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				done := make(chan JobID, 1)
				q.Submit("job", i%3, func(id JobID) {
					n := cur.Add(1)
					for {
						m := maxRunning.Load()
						if n <= m || maxRunning.CompareAndSwap(m, n) {
							break
						}
					}
					running.Store(id, true)
					done <- id
				})
				select {
				case id := <-done:
					cur.Add(-1)
					if err := q.Complete(id); err != nil {
						t.Errorf("Complete: %v", err)
					}
				case <-time.After(5 * time.Second):
					t.Error("job never started")
					return
				}
			}
		}()
	}
	wg.Wait()
	if maxRunning.Load() > 4 {
		t.Errorf("observed %d concurrent jobs, slots = 4", maxRunning.Load())
	}
	st := q.Stats()
	if st.Done != 400 {
		t.Errorf("Done = %d, want 400", st.Done)
	}
}

func TestPolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || Priority.String() != "priority" {
		t.Error("policy names")
	}
	for s, want := range map[State]string{
		StateQueued: "queued", StateRunning: "running",
		StateDone: "done", StateCancelled: "cancelled",
	} {
		if s.String() != want {
			t.Errorf("%v.String() = %q", int(s), s.String())
		}
	}
}
