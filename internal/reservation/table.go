package reservation

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"legion/internal/loid"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// Admission errors returned by Table operations.
var (
	// ErrConflict reports that the requested interval conflicts with
	// existing reservations under the admission rules.
	ErrConflict = errors.New("reservation: conflicts with existing reservation")
	// ErrInvalidToken reports a forged, tampered, cancelled, consumed, or
	// unknown token.
	ErrInvalidToken = errors.New("reservation: invalid token")
	// ErrExpired reports a token presented outside its valid window
	// (confirmation timeout elapsed or interval over).
	ErrExpired = errors.New("reservation: expired")
	// ErrNotYetValid reports a token presented before its start time.
	ErrNotYetValid = errors.New("reservation: start time not reached")
	// ErrBadRequest reports a malformed reservation request.
	ErrBadRequest = errors.New("reservation: bad request")
)

// Request asks a Table for a reservation.
type Request struct {
	// Vault is the storage partner the reservation pairs with.
	Vault loid.LOID
	// Type selects the Table 2 reservation class.
	Type Type
	// Start is the beginning of the wanted interval; the zero time means
	// "now" (an instantaneous reservation).
	Start time.Time
	// Duration is the wanted service time; must be positive.
	Duration time.Duration
	// Timeout is the confirmation deadline for instantaneous
	// reservations; zero means the Table's default.
	Timeout time.Duration
}

// entry is a live reservation in the table.
type entry struct {
	tok       Token
	issuedAt  time.Time
	confirmed bool // true once redeemed at least once
	consumed  bool // one-shot token already used
	cancelled bool
}

// Table is the host-side reservation store.
//
// The paper: "the standard Unix Host Object maintains a reservation table
// in the Host Object, because the Unix OS has no notion of reservations."
// The admission policy models a machine with a fixed number of slots
// (processors):
//
//   - an unshared (space-sharing) reservation allocates the entire
//     resource: it is admitted only if no other reservation overlaps its
//     interval, and once admitted nothing else may overlap it;
//   - shared (timesharing) reservations multiplex the resource: any
//     number up to MaxShared may overlap, but never alongside an
//     unshared one.
type Table struct {
	host   loid.LOID
	signer *Signer

	mu      sync.Mutex
	nextID  uint64
	entries map[uint64]*entry

	// MaxShared bounds concurrently overlapping shared reservations;
	// zero means unlimited.
	maxShared int
	// defaultTimeout applies to instantaneous reservations that specify
	// no timeout.
	defaultTimeout time.Duration

	// gauge, when set, tracks live-entry occupancy (see SetGauge);
	// gaugeCount is this table's last-reported contribution.
	gauge      *telemetry.Gauge
	gaugeCount int64

	clock vclock.Clock
}

// NewTable creates a reservation table for the given host, reading time
// from clock (nil = the wall clock). maxShared bounds overlapping
// timesharing reservations (0 = unlimited).
func NewTable(host loid.LOID, maxShared int, defaultTimeout time.Duration, clock vclock.Clock) *Table {
	return &Table{
		host:           host,
		signer:         NewSigner(),
		entries:        make(map[uint64]*entry),
		maxShared:      maxShared,
		defaultTimeout: defaultTimeout,
		clock:          vclock.Default(clock),
	}
}

// SetGauge attaches an occupancy gauge tracking the number of live
// (granted, uncancelled, unexpired) reservations. Updates are deltas,
// so several tables (the Hosts of one site) may share one aggregate
// gauge. The owning Host wires this to its runtime's registry; a nil
// gauge is a no-op.
func (tb *Table) SetGauge(g *telemetry.Gauge) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.gauge = g
	tb.gaugeCount = int64(len(tb.entries))
	g.Add(tb.gaugeCount)
}

// syncGaugeLocked pushes the live-entry count delta into the gauge;
// callers hold tb.mu and must call it after any entries-map mutation.
func (tb *Table) syncGaugeLocked() {
	n := int64(len(tb.entries))
	tb.gauge.Add(n - tb.gaugeCount)
	tb.gaugeCount = n
}

// Make attempts to grant a reservation. On success it returns a signed
// token; on admission failure it returns ErrConflict.
func (tb *Table) Make(req Request) (*Token, error) {
	if req.Duration <= 0 {
		return nil, fmt.Errorf("%w: non-positive duration", ErrBadRequest)
	}
	if req.Timeout < 0 {
		// A negative confirmation window would be stored as-is and the
		// `Timeout > 0` expiry guards would never fire: the unconfirmed
		// grant could outlive every reaper sweep — a permanent leak.
		// Reject it as malformed instead of silently defaulting.
		return nil, fmt.Errorf("%w: negative confirmation timeout %v", ErrBadRequest, req.Timeout)
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()

	now := tb.clock.Now()
	start := req.Start
	instantaneous := start.IsZero() || !start.After(now)
	if start.IsZero() {
		start = now
	}
	if start.Add(req.Duration).Before(now) {
		return nil, fmt.Errorf("%w: interval entirely in the past", ErrBadRequest)
	}
	end := start.Add(req.Duration)

	tb.gcLocked(now)

	overlappingShared := 0
	for _, e := range tb.entries {
		if !e.tok.Overlaps(start, end) {
			continue
		}
		if !e.tok.Type.Share || !req.Type.Share {
			// Space sharing on either side forbids any overlap.
			return nil, fmt.Errorf("%w: interval [%v,%v)", ErrConflict, start, end)
		}
		overlappingShared++
	}
	if req.Type.Share && tb.maxShared > 0 && overlappingShared >= tb.maxShared {
		return nil, fmt.Errorf("%w: timesharing multiplex limit %d reached", ErrConflict, tb.maxShared)
	}

	timeout := req.Timeout
	if instantaneous && timeout == 0 {
		timeout = tb.defaultTimeout
	}
	if !instantaneous {
		timeout = 0 // confirmation deadlines only apply to instantaneous reservations
	}

	tb.nextID++
	tok := Token{
		ID:       tb.nextID,
		Host:     tb.host,
		Vault:    req.Vault,
		Type:     req.Type,
		Start:    start,
		Duration: req.Duration,
		Timeout:  timeout,
	}
	tb.signer.Sign(&tok)
	tb.entries[tok.ID] = &entry{tok: tok, issuedAt: now}
	tb.syncGaugeLocked()
	return &tok, nil
}

// lookupLocked authenticates a presented token and returns its live entry.
func (tb *Table) lookupLocked(t *Token) (*entry, error) {
	if t == nil || !tb.signer.Valid(t) {
		return nil, fmt.Errorf("%w: bad MAC", ErrInvalidToken)
	}
	e, ok := tb.entries[t.ID]
	if !ok || e.cancelled {
		return nil, fmt.Errorf("%w: unknown or cancelled", ErrInvalidToken)
	}
	if e.consumed {
		return nil, fmt.Errorf("%w: one-shot token already used", ErrInvalidToken)
	}
	return e, nil
}

// Check reports whether the token is currently honored: authentic, known,
// not cancelled/consumed, and within its validity window. It implements
// the Host interface's check_reservation.
func (tb *Table) Check(t *Token) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	e, err := tb.lookupLocked(t)
	if err != nil {
		return err
	}
	return tb.windowLocked(e, false)
}

// windowLocked validates timing. If redeem is true the caller is
// presenting the token with a service request, which confirms it.
func (tb *Table) windowLocked(e *entry, redeem bool) error {
	now := tb.clock.Now()
	if now.Before(e.tok.Start) {
		return fmt.Errorf("%w: starts %v", ErrNotYetValid, e.tok.Start)
	}
	if !now.Before(e.tok.End()) {
		return fmt.Errorf("%w: ended %v", ErrExpired, e.tok.End())
	}
	if !e.confirmed && e.tok.Timeout > 0 && now.After(e.issuedAt.Add(e.tok.Timeout)) {
		return fmt.Errorf("%w: confirmation timeout %v elapsed", ErrExpired, e.tok.Timeout)
	}
	if redeem {
		e.confirmed = true
		if !e.tok.Type.Reuse {
			e.consumed = true
		}
	}
	return nil
}

// Redeem presents the token with a service request (StartObject). For
// one-shot tokens this consumes the token; for reusable tokens it leaves
// the token valid. Redemption implicitly confirms the reservation.
func (tb *Table) Redeem(t *Token) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	e, err := tb.lookupLocked(t)
	if err != nil {
		return err
	}
	return tb.windowLocked(e, true)
}

// Cancel releases a reservation. Cancelling an unknown or already-
// cancelled token returns ErrInvalidToken; cancelling a consumed one-shot
// token succeeds (it is already spent, the slot is free).
func (tb *Table) Cancel(t *Token) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if t == nil || !tb.signer.Valid(t) {
		return fmt.Errorf("%w: bad MAC", ErrInvalidToken)
	}
	e, ok := tb.entries[t.ID]
	if !ok || e.cancelled {
		return fmt.Errorf("%w: unknown or cancelled", ErrInvalidToken)
	}
	e.cancelled = true
	delete(tb.entries, t.ID)
	tb.syncGaugeLocked()
	return nil
}

// EntryInfo is one live reservation as seen by Snapshot.
type EntryInfo struct {
	Token     Token
	Confirmed bool
	Consumed  bool
}

// Snapshot returns the live (uncancelled, unexpired) reservations with
// their confirmation state. Audits use this to cross-reference tokens
// against the objects actually running under them.
func (tb *Table) Snapshot() []EntryInfo {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.gcLocked(tb.clock.Now())
	out := make([]EntryInfo, 0, len(tb.entries))
	for _, e := range tb.entries {
		out = append(out, EntryInfo{Token: e.tok, Confirmed: e.confirmed, Consumed: e.consumed})
	}
	return out
}

// Active returns the number of live (uncancelled, unexpired) reservations.
func (tb *Table) Active() int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.gcLocked(tb.clock.Now())
	return len(tb.entries)
}

// Reap synchronously drops expired and unconfirmed-past-timeout
// reservations and reports how many were reclaimed. Expiry also happens
// lazily on Make/Active, but a Host whose clients crashed between
// make_reservation and confirmation may see no further traffic — the
// background reaper calls this so orphaned grants free their slots
// promptly instead of at the next request.
func (tb *Table) Reap() int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	before := len(tb.entries)
	tb.gcLocked(tb.clock.Now())
	return before - len(tb.entries)
}

// gcLocked drops reservations whose interval has entirely passed or whose
// confirmation timeout elapsed unconfirmed.
func (tb *Table) gcLocked(now time.Time) {
	for id, e := range tb.entries {
		expired := !now.Before(e.tok.End()) ||
			(!e.confirmed && e.tok.Timeout > 0 && now.After(e.issuedAt.Add(e.tok.Timeout)))
		if expired {
			delete(tb.entries, id)
		}
	}
	tb.syncGaugeLocked()
}
