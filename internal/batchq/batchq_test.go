package batchq

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/vclock"
)

// virtualQueue builds a queue on a fresh virtual clock. Start callbacks
// are clock events, so a test fires them with RunUntilIdle.
func virtualQueue(cfg Config) (*Queue, *vclock.Virtual) {
	vc := vclock.NewVirtualAt(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC))
	cfg.Clock = vc
	return New(cfg), vc
}

func TestImmediateDispatchWhenSlotsFree(t *testing.T) {
	q, vc := virtualQueue(Config{Name: "test", Slots: 2})
	var started []JobID
	onStart := func(id JobID) { started = append(started, id) }
	id1 := q.Submit(onStart)
	id2 := q.Submit(onStart)
	if held, queued := slotsHeld(q), q.QueueLength(); held != 2 || queued != 0 {
		t.Errorf("%d slots held, %d queued; want 2, 0", held, queued)
	}
	vc.RunUntilIdle()
	if len(started) != 2 || started[0] != id1 || started[1] != id2 {
		t.Fatalf("started = %v", started)
	}
}

func TestQueueingBeyondSlots(t *testing.T) {
	q, vc := virtualQueue(Config{Name: "test", Slots: 1})
	var started []string
	submit := func(name string) JobID {
		return q.Submit(func(JobID) { started = append(started, name) })
	}
	a := submit("a")
	submit("b")
	submit("c")
	vc.RunUntilIdle()
	if len(started) != 1 || started[0] != "a" {
		t.Fatalf("started = %v", started)
	}
	if q.QueueLength() != 2 {
		t.Fatalf("QueueLength = %d", q.QueueLength())
	}
	if err := q.Complete(a); err != nil {
		t.Fatal(err)
	}
	// The next job starts only once the completing goroutine has parked.
	if len(started) != 1 {
		t.Fatalf("a job started inside Complete: %v", started)
	}
	vc.RunUntilIdle()
	// FCFS: b before c.
	if len(started) != 2 || started[1] != "b" {
		t.Fatalf("after complete, started = %v", started)
	}
}

func TestDispatchDelay(t *testing.T) {
	q := New(Config{Name: "test", Slots: 1, DispatchDelay: 30 * time.Millisecond})
	started := make(chan time.Time, 1)
	t0 := time.Now()
	q.Submit(func(JobID) { started <- time.Now() })
	select {
	case ts := <-started:
		if d := ts.Sub(t0); d < 25*time.Millisecond {
			t.Errorf("dispatched after %v, want >= ~30ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("job never dispatched")
	}
	if held := slotsHeld(q); held != 1 {
		t.Errorf("%d slots held, want 1", held)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	q, vc := virtualQueue(Config{Name: "test", Slots: 1})
	a := q.Submit(nil)
	b := q.Submit(nil)
	cStarted := false
	q.Submit(func(JobID) { cStarted = true })

	if err := q.Cancel(b); err != nil {
		t.Fatal(err)
	}
	if _, held := q.jobs[b]; held || q.QueueLength() != 1 {
		t.Errorf("after cancelling b: b held %t, %d queued; want false, 1", held, q.QueueLength())
	}
	q.Complete(a)
	vc.RunUntilIdle()
	if !cStarted {
		t.Error("c should start after a completes (b cancelled)")
	}
}

func TestCancelRunningJobFreesSlot(t *testing.T) {
	q, vc := virtualQueue(Config{Name: "test", Slots: 1})
	a := q.Submit(nil)
	bStarted := false
	q.Submit(func(JobID) { bStarted = true })
	if err := q.Cancel(a); err != nil {
		t.Fatal(err)
	}
	vc.RunUntilIdle()
	if !bStarted {
		t.Error("b should start after a cancelled")
	}
}

func TestCancelDelayedDispatchFreesSlot(t *testing.T) {
	q := New(Config{Name: "test", Slots: 1, DispatchDelay: 20 * time.Millisecond})
	aStarted := make(chan struct{})
	bStarted := make(chan struct{})
	a := q.Submit(func(JobID) { close(aStarted) })
	q.Submit(func(JobID) { close(bStarted) })
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
	a := q.Submit(nil)
	q.Complete(a)
	if err := q.Complete(a); err == nil {
		t.Error("double Complete succeeded")
	}
	if err := q.Cancel(a); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel(done) = %v", err)
	}
	// Completing a queued (not yet running) job is an error.
	q.Submit(nil) // running
	c := q.Submit(nil)
	if err := q.Complete(c); err == nil {
		t.Error("Complete(queued) succeeded")
	}
}

// TestFinishedJobsLeaveNoRecord: a queue that runs an unbounded stream of
// jobs keeps a record only while a job is queued or holds a slot, as a
// Batch Queue Host's queue does over its whole life.
func TestFinishedJobsLeaveNoRecord(t *testing.T) {
	q := New(Config{Name: "test", Slots: 1})
	for i := 0; i < 1000; i++ {
		if err := q.Complete(q.Submit(nil)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		if err := q.Cancel(q.Submit(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(q.jobs); n != 0 {
		t.Errorf("%d job records kept after every job finished, want 0", n)
	}
	if held, queued := slotsHeld(q), q.QueueLength(); held != 0 || queued != 0 {
		t.Errorf("%d slots held, %d queued after every job finished, want 0, 0", held, queued)
	}
}

// TestWaitAccounting: a queued job waits exactly until a slot frees.
func TestWaitAccounting(t *testing.T) {
	q, vc := virtualQueue(Config{Name: "test", Slots: 1})
	t0 := vc.Now()
	a := q.Submit(nil) // starts at once
	var bStarted time.Time
	q.Submit(func(JobID) { bStarted = vc.Now() }) // queued behind a
	vc.Advance(10 * time.Second)
	q.Complete(a)
	vc.RunUntilIdle()
	if wait := bStarted.Sub(t0); wait != 10*time.Second {
		t.Errorf("b waited %v, want the 10s until a's slot freed", wait)
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
				q.Submit(func(id JobID) {
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
	if held, n := slotsHeld(q), len(q.jobs); held != 0 || n != 0 {
		t.Errorf("%d slots held and %d jobs kept after every job completed, want 0", held, n)
	}
}

// slotsHeld reads how many slots q's jobs hold.
func slotsHeld(q *Queue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.running
}
