// Package batchq simulates the queue management systems the paper's Batch
// Queue Host objects mediate.
//
// §3.1: "We are currently implementing Host Objects which interact with
// queue management systems such as LoadLeveler and Condor. ... most batch
// processing systems do not understand reservations, and so our basic
// Batch Queue Host maintains reservations in a fashion similar to the
// Unix Host Object." The paper lists Batch Queue Host implementations for
// Unix machines, LoadLeveler, and Codine.
//
// Since those proprietary systems are unavailable, this package provides
// a faithful synthetic equivalent: a job queue with a fixed number of
// execution slots, FCFS or priority ordering, and a configurable dispatch
// delay modelling scheduler cycle time. The Batch Queue Host (package
// host) submits object activations as jobs; the delay between submission
// and dispatch is exactly the behaviour that distinguishes batch-managed
// resources from interactive Unix hosts in the experiments.
package batchq

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"

	"legion/internal/vclock"
)

// Policy selects the queue ordering discipline.
type Policy int

// Queue ordering disciplines.
const (
	// FCFS dispatches jobs in submission order (LoadLeveler default
	// class behaviour).
	FCFS Policy = iota
	// Priority dispatches the highest-priority job first, FCFS within a
	// priority level (Codine-style).
	Priority
)

// String names the policy.
func (p Policy) String() string {
	if p == Priority {
		return "priority"
	}
	return "fcfs"
}

// State is a job's lifecycle state.
type State int

// Job lifecycle states.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateCancelled
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	default:
		return "cancelled"
	}
}

// JobID identifies a submitted job.
type JobID uint64

// Config parameterizes a Queue.
type Config struct {
	// Name labels the queue ("loadleveler", "codine", ...).
	Name string
	// Slots is the number of jobs that may run concurrently; must be >= 1.
	Slots int
	// Policy is the ordering discipline.
	Policy Policy
	// DispatchDelay is the simulated scheduler cycle: the minimum time
	// between a job reaching the head of the queue with a free slot and
	// its start callback running. Zero dispatches synchronously.
	DispatchDelay time.Duration
	// Clock supplies dispatch timers and wait-time accounting; nil means
	// the wall clock.
	Clock vclock.Clock
}

// Errors returned by Queue operations.
var (
	ErrUnknownJob = errors.New("batchq: unknown job")
	ErrClosed     = errors.New("batchq: queue closed")
)

// job is the internal job record.
type job struct {
	id        JobID
	name      string
	priority  int
	state     State
	submitted time.Time
	started   time.Time
	onStart   func(JobID)
	seq       uint64 // FCFS tiebreak
	index     int    // heap index
}

// jobHeap orders queued jobs per the policy.
type jobHeap struct {
	jobs   []*job
	policy Policy
}

func (h *jobHeap) Len() int { return len(h.jobs) }

func (h *jobHeap) Less(i, j int) bool {
	a, b := h.jobs[i], h.jobs[j]
	if h.policy == Priority && a.priority != b.priority {
		return a.priority > b.priority // higher priority first
	}
	return a.seq < b.seq
}

func (h *jobHeap) Swap(i, j int) {
	h.jobs[i], h.jobs[j] = h.jobs[j], h.jobs[i]
	h.jobs[i].index = i
	h.jobs[j].index = j
}

func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.index = len(h.jobs)
	h.jobs = append(h.jobs, j)
}

func (h *jobHeap) Pop() any {
	old := h.jobs
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	h.jobs = old[:n-1]
	return j
}

// Stats summarizes queue occupancy.
type Stats struct {
	Queued    int
	Running   int
	Done      int
	Cancelled int
	// TotalWait accumulates queued-to-started wait across dispatched
	// jobs; TotalWait/Done approximates mean queue wait.
	TotalWait time.Duration
}

// Queue is a simulated batch queue management system. It is safe for
// concurrent use.
type Queue struct {
	cfg Config

	mu      sync.Mutex
	nextID  JobID
	nextSeq uint64
	pending jobHeap
	jobs    map[JobID]*job
	running int
	stats   Stats
	closed  bool
	timers  map[vclock.Timer]struct{}
	clock   vclock.Clock
}

// New creates a Queue. It panics on a non-positive slot count, which is a
// configuration bug.
func New(cfg Config) *Queue {
	if cfg.Slots < 1 {
		panic(fmt.Sprintf("batchq: %q: slots must be >= 1, got %d", cfg.Name, cfg.Slots))
	}
	return &Queue{
		cfg:     cfg,
		jobs:    make(map[JobID]*job),
		timers:  make(map[vclock.Timer]struct{}),
		pending: jobHeap{policy: cfg.Policy},
		clock:   vclock.Default(cfg.Clock),
	}
}

// Config returns the queue's configuration.
func (q *Queue) Config() Config { return q.cfg }

// Submit enqueues a job. onStart, if non-nil, runs when the job is
// dispatched to a slot — synchronously within Submit when a slot is free
// and DispatchDelay is zero, otherwise on a timer or a later Complete/
// Cancel call. onStart must not block.
func (q *Queue) Submit(name string, priority int, onStart func(JobID)) (JobID, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, ErrClosed
	}
	q.nextID++
	q.nextSeq++
	j := &job{
		id:        q.nextID,
		name:      name,
		priority:  priority,
		state:     StateQueued,
		submitted: q.clock.Now(),
		onStart:   onStart,
		seq:       q.nextSeq,
	}
	q.jobs[j.id] = j
	heap.Push(&q.pending, j)
	starts := q.fillSlotsLocked()
	q.mu.Unlock()
	runStarts(starts)
	return j.id, nil
}

// fillSlotsLocked dispatches queued jobs into free slots. It returns the
// start callbacks to run after the lock is released (zero-delay case);
// delayed dispatches are armed on timers.
func (q *Queue) fillSlotsLocked() []func() {
	var starts []func()
	for q.running < q.cfg.Slots && q.pending.Len() > 0 {
		j := heap.Pop(&q.pending).(*job)
		q.running++
		if q.cfg.DispatchDelay <= 0 {
			q.startLocked(j)
			if j.onStart != nil {
				cb, id := j.onStart, j.id
				starts = append(starts, func() { cb(id) })
			}
			continue
		}
		var tm vclock.Timer
		tm = q.clock.AfterFunc(q.cfg.DispatchDelay, func() {
			q.mu.Lock()
			delete(q.timers, tm)
			if q.closed || j.state != StateQueued {
				// Cancelled while waiting for dispatch: free the slot.
				q.running--
				more := q.fillSlotsLocked()
				q.mu.Unlock()
				runStarts(more)
				return
			}
			q.startLocked(j)
			cb, id := j.onStart, j.id
			q.mu.Unlock()
			if cb != nil {
				cb(id)
			}
		})
		q.timers[tm] = struct{}{}
	}
	return starts
}

func runStarts(starts []func()) {
	for _, s := range starts {
		s()
	}
}

func (q *Queue) startLocked(j *job) {
	j.state = StateRunning
	j.started = q.clock.Now()
	q.stats.TotalWait += j.started.Sub(j.submitted)
}

// Complete marks a running job finished, freeing its slot. Completing a
// queued job is an error (it has not started); use Cancel.
func (q *Queue) Complete(id JobID) error {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	if j.state != StateRunning {
		q.mu.Unlock()
		return fmt.Errorf("batchq: complete job %d in state %v", id, j.state)
	}
	j.state = StateDone
	q.running--
	q.stats.Done++
	starts := q.fillSlotsLocked()
	q.mu.Unlock()
	runStarts(starts)
	return nil
}

// Cancel removes a job. A queued job is dropped; a running job's slot is
// freed (the caller is responsible for killing whatever it started).
func (q *Queue) Cancel(id JobID) error {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.state == StateDone || j.state == StateCancelled {
		q.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	wasRunning := j.state == StateRunning
	wasQueued := j.state == StateQueued
	j.state = StateCancelled
	q.stats.Cancelled++
	if wasQueued && j.index >= 0 {
		heap.Remove(&q.pending, j.index)
	}
	var starts []func()
	if wasRunning {
		q.running--
		starts = q.fillSlotsLocked()
	}
	q.mu.Unlock()
	runStarts(starts)
	return nil
}

// Forget drops a terminal (done or cancelled) job's record, so callers
// that submit an unbounded stream of jobs (e.g. an admission controller
// reusing the queue's priority ordering) do not grow the job map without
// limit. Forgetting a queued or running job is an error — it still owns
// heap or slot state.
func (q *Queue) Forget(id JobID) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	if j.state != StateDone && j.state != StateCancelled {
		return fmt.Errorf("batchq: forget job %d in state %v", id, j.state)
	}
	delete(q.jobs, id)
	return nil
}

// State returns a job's lifecycle state.
func (q *Queue) State(id JobID) (State, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	return j.state, nil
}

// Stats returns a snapshot of queue occupancy and accounting.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.Queued = q.pending.Len()
	s.Running = q.running
	return s
}

// QueueLength returns the number of jobs waiting for a slot.
func (q *Queue) QueueLength() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending.Len()
}

// Close stops the queue: pending timers are cancelled and future Submits
// fail. Running jobs are left to their owners.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	for tm := range q.timers {
		tm.Stop()
		delete(q.timers, tm)
	}
}
