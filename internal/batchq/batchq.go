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
// a faithful synthetic equivalent: an FCFS job queue with a fixed number
// of execution slots and a configurable dispatch delay modelling
// scheduler cycle time. The delay between submission and dispatch is
// exactly the behaviour that distinguishes batch-managed resources from
// interactive Unix hosts in the experiments.
//
// Its one production caller is the Batch Queue Host (package host);
// sim and the examples only build queues to hand to one. It stays a
// package of its own because it stands for the queue manager behind the
// host, not the host: the substrate a LoadLeveler or Codine would replace,
// which sits below the Host's reservation table and knows nothing of
// reservations, objects or the ORB.
package batchq

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"legion/internal/vclock"
)

// JobID identifies a submitted job.
type JobID uint64

// Config parameterizes a Queue.
type Config struct {
	// Name labels the queue ("loadleveler", "codine", ...).
	Name string
	// Slots is the number of jobs that may run concurrently; must be >= 1.
	Slots int
	// DispatchDelay is the simulated scheduler cycle: the minimum time
	// between a job reaching the head of the queue with a free slot and
	// its start callback running. Zero starts it through Clock.Go, once
	// the goroutine that submitted it or freed its slot has parked.
	DispatchDelay time.Duration
	// Clock supplies dispatch timers; nil means the wall clock.
	Clock vclock.Clock
}

// ErrUnknownJob reports a Complete or Cancel of a job the queue does not
// hold.
var ErrUnknownJob = errors.New("batchq: unknown job")

// job is a job's record, kept while it is queued or holds a slot.
type job struct {
	id      JobID
	onStart func(JobID)
	started bool // dispatched; a delayed dispatch holds a slot before it starts
}

// Queue is a simulated batch queue management system. It is safe for
// concurrent use.
type Queue struct {
	cfg Config

	mu      sync.Mutex
	nextID  JobID
	pending []*job         // waiting for a slot, in submission order
	jobs    map[JobID]*job // queued or holding a slot
	running int            // slots held, a pending delayed dispatch's included
	clock   vclock.Clock
}

// New creates a Queue. It panics on a non-positive slot count, which is a
// configuration bug.
func New(cfg Config) *Queue {
	if cfg.Slots < 1 {
		panic(fmt.Sprintf("batchq: %q: slots must be >= 1, got %d", cfg.Name, cfg.Slots))
	}
	return &Queue{
		cfg:   cfg,
		jobs:  make(map[JobID]*job),
		clock: vclock.Default(cfg.Clock),
	}
}

// Config returns the queue's configuration.
func (q *Queue) Config() Config { return q.cfg }

// Submit enqueues a job. onStart, if non-nil, runs on its own clock
// goroutine when the job is dispatched to a slot, never inside Submit,
// Complete or Cancel. onStart must not block.
func (q *Queue) Submit(onStart func(JobID)) JobID {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.nextID++
	j := &job{id: q.nextID, onStart: onStart}
	q.jobs[j.id] = j
	q.pending = append(q.pending, j)
	q.fillSlotsLocked()
	return j.id
}

// fillSlotsLocked dispatches queued jobs into free slots, at once or on
// a timer when there is a dispatch delay.
func (q *Queue) fillSlotsLocked() {
	for q.running < q.cfg.Slots && len(q.pending) > 0 {
		j := q.pending[0]
		q.pending = slices.Delete(q.pending, 0, 1)
		q.running++
		if q.cfg.DispatchDelay <= 0 {
			q.startLocked(j)
			continue
		}
		q.clock.AfterFunc(q.cfg.DispatchDelay, func() {
			q.mu.Lock()
			defer q.mu.Unlock()
			if q.jobs[j.id] != j {
				// Cancelled while waiting for dispatch: free the slot.
				q.running--
				q.fillSlotsLocked()
				return
			}
			q.startLocked(j)
		})
	}
}

// startLocked marks j started and runs its start callback through the
// clock: under a virtual clock it runs only once the goroutine that
// dispatched j has parked, as a Group's release does, so a run replays.
func (q *Queue) startLocked(j *job) {
	j.started = true
	if cb, id := j.onStart, j.id; cb != nil {
		q.clock.Go(func() { cb(id) })
	}
}

// Complete marks a running job finished, freeing its slot and dropping
// its record. Completing a job that has not started is an error; use
// Cancel.
func (q *Queue) Complete(id JobID) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	if !j.started {
		return fmt.Errorf("batchq: complete job %d before it started", id)
	}
	delete(q.jobs, id)
	q.running--
	q.fillSlotsLocked()
	return nil
}

// Cancel removes a job and drops its record. A queued job is dropped; a
// started one's slot is freed (the caller is responsible for killing
// whatever it started); one waiting out its dispatch delay frees its slot
// when the delay ends.
func (q *Queue) Cancel(id JobID) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	delete(q.jobs, id)
	if j.started {
		q.running--
		q.fillSlotsLocked()
	} else if i := slices.Index(q.pending, j); i >= 0 {
		q.pending = slices.Delete(q.pending, i, i+1)
	}
	return nil
}

// QueueLength returns the number of jobs waiting for a slot.
func (q *Queue) QueueLength() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}
