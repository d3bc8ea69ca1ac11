package reservation

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// This file checks the reservation table against an independent model of
// the Table 2 semantics under long seeded random op sequences. The model
// mirrors the admission, redemption, and expiry rules; every divergence
// is a bug in one of them. Three safety properties get asserted
// directly, independent of the oracle:
//
//  1. forged tokens (any field or MAC bit mutated) are never honored;
//  2. a one-shot (Reuse=false) token never redeems twice;
//  3. no two concurrently live reservations overlap when either is
//     space-sharing (Share=false).
//
// Failures print the sequence seed; re-run with that seed in the subtest
// name to reproduce.

type modelEntry struct {
	tok       Token
	issuedAt  time.Time
	confirmed bool
	consumed  bool
}

// model is the reference implementation the real Table is checked
// against. It garbage-collects only where the Table does (Make, Active)
// so error classes stay aligned: presenting an expired-but-unswept
// token reports ErrExpired, a swept one ErrInvalidToken.
type model struct {
	entries   map[uint64]*modelEntry
	maxShared int
}

func (m *model) expired(e *modelEntry, now time.Time) bool {
	return !now.Before(e.tok.End()) ||
		(!e.confirmed && e.tok.Timeout > 0 && now.After(e.issuedAt.Add(e.tok.Timeout)))
}

func (m *model) gc(now time.Time) {
	for id, e := range m.entries {
		if m.expired(e, now) {
			delete(m.entries, id)
		}
	}
}

// admit mirrors Table.Make's decision (call after gc).
func (m *model) admit(req Request, now time.Time) bool {
	if req.Duration <= 0 {
		return false
	}
	start := req.Start
	if start.IsZero() {
		start = now
	}
	if start.Add(req.Duration).Before(now) {
		return false
	}
	end := start.Add(req.Duration)
	shared := 0
	for _, e := range m.entries {
		if !e.tok.Overlaps(start, end) {
			continue
		}
		if !e.tok.Type.Share || !req.Type.Share {
			return false
		}
		shared++
	}
	if req.Type.Share && m.maxShared > 0 && shared >= m.maxShared {
		return false
	}
	return true
}

// presentExpect predicts Check/Redeem's error class for an authentic
// token; redeem additionally applies confirmation/consumption.
func (m *model) presentExpect(tok *Token, now time.Time, redeem bool) error {
	e, ok := m.entries[tok.ID]
	if !ok {
		return ErrInvalidToken
	}
	if e.consumed {
		return ErrInvalidToken
	}
	if now.Before(e.tok.Start) {
		return ErrNotYetValid
	}
	if !now.Before(e.tok.End()) {
		return ErrExpired
	}
	if !e.confirmed && e.tok.Timeout > 0 && now.After(e.issuedAt.Add(e.tok.Timeout)) {
		return ErrExpired
	}
	if redeem {
		e.confirmed = true
		if !e.tok.Type.Reuse {
			e.consumed = true
		}
	}
	return nil
}

// checkNoForbiddenOverlap asserts property 3 over the model's unexpired
// entries.
func (m *model) checkNoForbiddenOverlap(t *testing.T, now time.Time) {
	t.Helper()
	var live []*modelEntry
	for _, e := range m.entries {
		if !m.expired(e, now) {
			live = append(live, e)
		}
	}
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			a, b := live[i].tok, live[j].tok
			if a.Overlaps(b.Start, b.End()) && (!a.Type.Share || !b.Type.Share) {
				t.Fatalf("double-booked exclusive reservation: #%d %s [%v,%v) overlaps #%d %s [%v,%v)",
					a.ID, a.Type, a.Start, a.End(), b.ID, b.Type, b.Start, b.End())
			}
		}
	}
}

var allTypes = []Type{
	OneShotSpaceSharing, ReusableSpaceSharing,
	OneShotTimesharing, ReusableTimesharing,
}

func TestReservationClassesProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runReservationSequence(t, seed, 500)
		})
	}
}

func runReservationSequence(t *testing.T, seed int64, ops int) {
	t.Logf("sequence seed %d (op mix and timings derive from it)", seed)
	rng := rand.New(rand.NewSource(seed))
	const maxShared = 3
	tb, clk := newTestTable(maxShared)
	m := &model{entries: make(map[uint64]*modelEntry), maxShared: maxShared}

	// issued holds every token ever granted, including cancelled and
	// consumed ones, so stale presentations get exercised too.
	var issued []*Token

	pick := func() *Token {
		if len(issued) == 0 {
			return nil
		}
		return issued[rng.Intn(len(issued))]
	}

	for op := 0; op < ops; op++ {
		now := clk.Now()
		switch r := rng.Intn(10); {
		case r < 4: // make
			req := Request{
				Vault:    vaultL,
				Type:     allTypes[rng.Intn(len(allTypes))],
				Duration: time.Duration(1+rng.Intn(10)) * time.Second,
			}
			if rng.Intn(2) == 0 {
				// Future or slightly past start; zero means "now".
				req.Start = now.Add(time.Duration(rng.Intn(16)-5) * time.Second)
			}
			if rng.Intn(4) == 0 {
				req.Timeout = time.Duration(1+rng.Intn(3)) * time.Second
			}
			m.gc(now)
			want := m.admit(req, now)
			tok, err := tb.Make(req)
			if want != (err == nil) {
				t.Fatalf("op %d: Make(%+v) err=%v, model admit=%v", op, req, err, want)
			}
			if err == nil {
				issued = append(issued, &tok)
				m.entries[tok.ID] = &modelEntry{tok: tok, issuedAt: now}
				m.checkNoForbiddenOverlap(t, now)
			}
		case r < 6: // redeem
			tok := pick()
			if tok == nil {
				continue
			}
			want := m.presentExpect(tok, now, true)
			err := tb.Redeem(tok)
			if !errors.Is(err, want) && !(want == nil && err == nil) {
				t.Fatalf("op %d: Redeem(#%d %s) = %v, model wants %v", op, tok.ID, tok.Type, err, want)
			}
		case r < 7: // check (no state change)
			tok := pick()
			if tok == nil {
				continue
			}
			want := m.presentExpect(tok, now, false)
			err := tb.Check(tok)
			if !errors.Is(err, want) && !(want == nil && err == nil) {
				t.Fatalf("op %d: Check(#%d) = %v, model wants %v", op, tok.ID, err, want)
			}
		case r < 8: // cancel
			tok := pick()
			if tok == nil {
				continue
			}
			_, known := m.entries[tok.ID]
			err := tb.Cancel(tok)
			if known != (err == nil) {
				t.Fatalf("op %d: Cancel(#%d) = %v, model known=%v", op, tok.ID, err, known)
			}
			delete(m.entries, tok.ID)
		case r < 9: // forge: mutate an authentic token; never honored
			tok := pick()
			if tok == nil {
				continue
			}
			forged := *tok
			forged.MAC = append([]byte(nil), tok.MAC...)
			switch rng.Intn(5) {
			case 0:
				forged.ID += uint64(1 + rng.Intn(100))
			case 1:
				forged.Type.Reuse = !forged.Type.Reuse // grant yourself reuse
			case 2:
				forged.Type.Share = !forged.Type.Share
			case 3:
				forged.Duration += time.Second // extend your slot
			case 4:
				forged.MAC[rng.Intn(len(forged.MAC))] ^= 1 << (rng.Intn(8))
			}
			for name, err := range map[string]error{
				"Check":  tb.Check(&forged),
				"Redeem": tb.Redeem(&forged),
				"Cancel": tb.Cancel(&forged),
			} {
				if !errors.Is(err, ErrInvalidToken) {
					t.Fatalf("op %d: %s accepted forged token #%d: %v", op, name, forged.ID, err)
				}
			}
		default: // advance time
			clk.Advance(time.Duration(rng.Intn(8000)) * time.Millisecond)
		}

		// Occupancy oracle: Active() sweeps, so sweep the model too.
		now = clk.Now()
		m.gc(now)
		if got, want := tb.Active(), len(m.entries); got != want {
			t.Fatalf("op %d: Active() = %d, model has %d live entries", op, got, want)
		}
	}
}

// TestOneShotNeverRedeemsTwice pins property 2 for both one-shot
// classes directly, without the oracle in the loop.
func TestOneShotNeverRedeemsTwice(t *testing.T) {
	for _, ty := range []Type{OneShotSpaceSharing, OneShotTimesharing} {
		tb, _ := newTestTable(0)
		tok, err := tb.Make(Request{Vault: vaultL, Type: ty, Duration: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Redeem(&tok); err != nil {
			t.Fatalf("%s: first redeem: %v", ty, err)
		}
		if err := tb.Redeem(&tok); !errors.Is(err, ErrInvalidToken) {
			t.Errorf("%s: second redeem of one-shot token = %v, want ErrInvalidToken", ty, err)
		}
	}
}
