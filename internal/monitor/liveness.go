package monitor

import (
	"sync"
	"time"

	"legion/internal/loid"
	"legion/internal/vclock"
)

// LivenessState classifies a tracked resource's reachability.
type LivenessState int

const (
	// LivenessUnknown means the resource has never been heard from.
	LivenessUnknown LivenessState = iota
	// LivenessUp means a heartbeat arrived within the staleness window.
	LivenessUp
	// LivenessStale means the last heartbeat is older than the window but
	// the resource has not accumulated enough failures to be declared
	// down — its Collection record may be served stale-but-flagged.
	LivenessStale
	// LivenessDown means consecutive probe failures crossed the down
	// threshold: the resource should not be offered to schedulers.
	LivenessDown
)

// String renders the state for attributes and logs.
func (s LivenessState) String() string {
	switch s {
	case LivenessUp:
		return "up"
	case LivenessStale:
		return "stale"
	case LivenessDown:
		return "down"
	default:
		return "unknown"
	}
}

// Liveness tracks per-resource heartbeat recency and probe-failure
// streaks — the paper's Host state information made explicit for failure
// handling. Successful pulls (or pushes received) call Beat; failed
// probes call Fail; consumers ask State. Safe for concurrent use.
//
// Liveness is deliberately transport-agnostic: the Collection daemon
// feeds it from its pull loop, and tests feed it directly.
type Liveness struct {
	mu sync.Mutex
	// staleAfter is how long after the last Beat a resource is Stale.
	staleAfter time.Duration
	// downAfter is the consecutive-failure count that declares Down.
	downAfter int
	clock     vclock.Clock
	entries   map[loid.LOID]*livenessEntry
	// onChange observes state transitions seen at Beat/Fail events
	// (passive staleness is not reported — nothing observes it happen).
	onChange func(r loid.LOID, from, to LivenessState)
}

type livenessEntry struct {
	lastBeat time.Time
	beaten   bool
	failures int
}

// NewLiveness creates a tracker ageing heartbeats on clock (nil = the
// wall clock). staleAfter <= 0 defaults to 10 seconds; downAfter <= 0
// defaults to 3 consecutive failures.
func NewLiveness(staleAfter time.Duration, downAfter int, clock vclock.Clock) *Liveness {
	if staleAfter <= 0 {
		staleAfter = 10 * time.Second
	}
	if downAfter <= 0 {
		downAfter = 3
	}
	return &Liveness{
		staleAfter: staleAfter,
		downAfter:  downAfter,
		clock:      vclock.Default(clock),
		entries:    make(map[loid.LOID]*livenessEntry),
	}
}

// OnTransition installs an observer invoked (outside the tracker's
// lock) whenever a Beat or Fail changes a resource's classification —
// the telemetry layer counts up/down flaps with this. At most one
// observer; nil clears it.
func (l *Liveness) OnTransition(fn func(r loid.LOID, from, to LivenessState)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onChange = fn
}

func (l *Liveness) entry(r loid.LOID) *livenessEntry {
	e, ok := l.entries[r]
	if !ok {
		e = &livenessEntry{}
		l.entries[r] = e
	}
	return e
}

// Beat records a successful contact with r, resetting its failure streak.
func (l *Liveness) Beat(r loid.LOID) {
	l.mu.Lock()
	before := l.stateLocked(r)
	e := l.entry(r)
	e.lastBeat = l.clock.Now()
	e.beaten = true
	e.failures = 0
	after := l.stateLocked(r)
	fn := l.onChange
	l.mu.Unlock()
	if fn != nil && before != after {
		fn(r, before, after)
	}
}

// Fail records a failed probe of r and returns the consecutive-failure
// count.
func (l *Liveness) Fail(r loid.LOID) int {
	l.mu.Lock()
	before := l.stateLocked(r)
	e := l.entry(r)
	e.failures++
	n := e.failures
	after := l.stateLocked(r)
	fn := l.onChange
	l.mu.Unlock()
	if fn != nil && before != after {
		fn(r, before, after)
	}
	return n
}

// State classifies r now.
func (l *Liveness) State(r loid.LOID) LivenessState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stateLocked(r)
}

func (l *Liveness) stateLocked(r loid.LOID) LivenessState {
	e, ok := l.entries[r]
	if !ok {
		return LivenessUnknown
	}
	if e.failures >= l.downAfter {
		return LivenessDown
	}
	if !e.beaten {
		if e.failures > 0 {
			return LivenessStale
		}
		return LivenessUnknown
	}
	if l.clock.Now().Sub(e.lastBeat) > l.staleAfter {
		return LivenessStale
	}
	return LivenessUp
}

// LastBeat returns when r last heartbeat, and false if it never has.
func (l *Liveness) LastBeat(r loid.LOID) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[r]
	if !ok || !e.beaten {
		return time.Time{}, false
	}
	return e.lastBeat, true
}
