package resilient

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"legion/internal/loid"
	"legion/internal/vclock"
)

// ErrCircuitOpen reports a call refused locally because the endpoint's
// breaker is open (the endpoint failed repeatedly and its cooldown has
// not elapsed). Classified permanent: the caller should fall back —
// variant schedule, other master, stale record — rather than retry.
var ErrCircuitOpen = errors.New("resilient: circuit open")

// State is a breaker's position.
type State int

// Breaker states (closed → open → half-open → closed).
const (
	// Closed: calls flow normally.
	Closed State = iota
	// Open: calls are refused without touching the endpoint.
	Open
	// HalfOpen: a limited number of probe calls may test the endpoint.
	HalfOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	default:
		return "half-open"
	}
}

// BreakerConfig parameterizes breakers.
type BreakerConfig struct {
	// FailureThreshold is the consecutive transport-failure count that
	// opens the breaker; <=0 means 5.
	FailureThreshold int
	// Cooldown is how long an open breaker refuses calls before allowing
	// a half-open probe; <=0 means 2s.
	Cooldown time.Duration
}

// halfOpenMax bounds concurrent probes in half-open.
const halfOpenMax = 1

func (c BreakerConfig) threshold() int {
	if c.FailureThreshold <= 0 {
		return 5
	}
	return c.FailureThreshold
}

func (c BreakerConfig) cooldown() time.Duration {
	if c.Cooldown <= 0 {
		return 2 * time.Second
	}
	return c.Cooldown
}

// Breaker is a circuit breaker for one endpoint (a LOID or a TCP
// address). Only transport faults count toward opening it: a permanent
// refusal (policy, conflict) proves the endpoint alive and resets the
// failure streak. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int       // consecutive transport failures (closed state)
	openedAt time.Time // when the breaker last opened
	probes   int       // in-flight probes (half-open state)
	clock    vclock.Clock
	onChange func(from, to State) // observer, invoked outside mu
}

// OnStateChange installs an observer invoked (outside the breaker's
// lock) on every state transition — the telemetry layer counts trips
// and recoveries with this. At most one observer; nil clears it.
func (b *Breaker) OnStateChange(fn func(from, to State)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onChange = fn
}

// transitionLocked moves the breaker to state to and returns a function
// the caller must run after releasing b.mu (nil-safe) to notify the
// observer.
func (b *Breaker) transitionLocked(to State) func() {
	from := b.state
	b.state = to
	fn := b.onChange
	if fn == nil || from == to {
		return func() {}
	}
	return func() { fn(from, to) }
}

// NewBreaker creates a closed breaker timing its cooldown on clock
// (nil = the wall clock).
func NewBreaker(cfg BreakerConfig, clock vclock.Clock) *Breaker {
	return &Breaker{cfg: cfg, clock: vclock.Default(clock)}
}

// State returns the breaker's current position, accounting for cooldown
// expiry (an open breaker past its cooldown reports half-open).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.clock.Now().Sub(b.openedAt) >= b.cfg.cooldown() {
		return HalfOpen
	}
	return b.state
}

// Allow asks permission to place one call. It returns nil (call may
// proceed; the caller must Record the outcome) or ErrCircuitOpen.
func (b *Breaker) Allow() error {
	notify := func() {}
	b.mu.Lock()
	defer func() { b.mu.Unlock(); notify() }()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.clock.Now().Sub(b.openedAt) < b.cfg.cooldown() {
			return fmt.Errorf("%w: cooling down", ErrCircuitOpen)
		}
		// Cooldown elapsed: transition to half-open and admit this call
		// as the first probe.
		notify = b.transitionLocked(HalfOpen)
		b.probes = 1
		return nil
	default: // HalfOpen
		if b.probes >= halfOpenMax {
			return fmt.Errorf("%w: half-open probe limit", ErrCircuitOpen)
		}
		b.probes++
		return nil
	}
}

// Record reports one allowed call's outcome. Success or a permanent
// refusal (both prove the endpoint reachable) closes or keeps closed;
// a transport fault counts toward opening.
func (b *Breaker) Record(err error) {
	class := Classify(err)
	notify := func() {}
	b.mu.Lock()
	defer func() { b.mu.Unlock(); notify() }()
	switch b.state {
	case HalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if class == ClassRetryable {
			notify = b.transitionLocked(Open)
			b.openedAt = b.clock.Now()
			b.failures = 0
			return
		}
		// The probe reached the endpoint: recover.
		notify = b.transitionLocked(Closed)
		b.failures = 0
	case Closed:
		if class != ClassRetryable {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.threshold() {
			notify = b.transitionLocked(Open)
			b.openedAt = b.clock.Now()
			b.failures = 0
		}
	case Open:
		// A straggler from before the breaker opened; nothing to update.
	}
}

// BreakerSet holds one Breaker per endpoint key (a LOID string or TCP
// address). Safe for concurrent use.
type BreakerSet struct {
	cfg BreakerConfig

	mu       sync.Mutex
	m        map[string]*Breaker
	clock    vclock.Clock         // every breaker's clock
	onChange func(from, to State) // applied to current and new breakers

	// byLOID memoizes LOID→Breaker so the per-call lookup on the query
	// hot path skips formatting the LOID into its string key. Entries
	// alias s.m and live as long as the set, like the breakers they name.
	byLOID sync.Map
}

// NewBreakerSet creates an empty set minting breakers with cfg on clock
// (nil = the wall clock).
func NewBreakerSet(cfg BreakerConfig, clock vclock.Clock) *BreakerSet {
	return &BreakerSet{cfg: cfg, clock: vclock.Default(clock), m: make(map[string]*Breaker)}
}

// For returns (creating if needed) the breaker for key.
func (s *BreakerSet) For(key string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	if !ok {
		b = NewBreaker(s.cfg, s.clock)
		if s.onChange != nil {
			b.OnStateChange(s.onChange)
		}
		s.m[key] = b
	}
	return b
}

// ForLOID is For keyed by a target LOID, memoized so repeated calls for
// the same endpoint avoid re-deriving the string key.
func (s *BreakerSet) ForLOID(target loid.LOID) *Breaker {
	if b, ok := s.byLOID.Load(target); ok {
		return b.(*Breaker)
	}
	b := s.For(target.String())
	s.byLOID.Store(target, b)
	return b
}

// OnStateChange installs a transition observer on every current and
// future breaker in the set — one counter hook covers a whole domain's
// endpoints.
func (s *BreakerSet) OnStateChange(fn func(from, to State)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onChange = fn
	for _, b := range s.m {
		b.OnStateChange(fn)
	}
}
