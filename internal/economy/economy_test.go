package economy

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"legion/internal/loid"
	"legion/internal/telemetry"
)

// hostA and hostB issue token IDs independently, so both may issue 42.
var (
	hostA = loid.LOID{Domain: "uva", Class: "Host", Instance: 1}
	hostB = loid.LOID{Domain: "uva", Class: "Host", Instance: 2}
)

func TestChargeRefundExactlyOnce(t *testing.T) {
	l := NewLedger(telemetry.NewRegistry())
	l.Open("t1", ToCredits(10))

	if err := l.Charge("t1", hostA, 42, ToCredits(4)); err != nil {
		t.Fatalf("charge: %v", err)
	}
	if err := l.Charge("t1", hostA, 42, ToCredits(1)); err == nil {
		t.Fatalf("double charge of live token accepted")
	}
	if err := l.Charge("t1", hostB, 42, ToCredits(1)); err != nil {
		t.Fatalf("charge of another host's token 42: %v", err)
	}
	if got := l.Account("t1").Remaining(); got != ToCredits(5) {
		t.Fatalf("remaining = %v, want 5", got)
	}
	if got := l.Refund(hostA, 42); got != ToCredits(4) {
		t.Fatalf("refund = %v, want 4", got)
	}
	if got := l.Refund(hostA, 42); got != 0 {
		t.Fatalf("second refund = %v, want 0", got)
	}
	if got := l.Refund(hostB, 42); got != ToCredits(1) {
		t.Fatalf("refund of host B's token = %v, want 1", got)
	}
	if got := l.Account("t1").Remaining(); got != ToCredits(10) {
		t.Fatalf("remaining after refund = %v, want 10", got)
	}
	if bad := l.Audit(); len(bad) != 0 {
		t.Fatalf("audit: %v", bad)
	}
}

func TestChargeRefusesOverBudget(t *testing.T) {
	l := NewLedger(telemetry.NewRegistry())
	l.Open("poor", ToCredits(1))
	if err := l.Charge("poor", hostA, 1, ToCredits(2)); !errors.Is(err, ErrInsufficientBudget) {
		t.Fatalf("err = %v, want ErrInsufficientBudget", err)
	}
	// A refused charge must leave the ledger untouched.
	if got := l.Account("poor").Remaining(); got != ToCredits(1) {
		t.Fatalf("remaining after refusal = %v, want 1", got)
	}
	if l.LiveCharges() != 0 {
		t.Fatalf("refused charge left a live token record")
	}
}

// TestChargeOfTheWholeRemainder: a charge of exactly what a tenant has
// left is accepted and leaves it at 0; one credit more is refused.
func TestChargeOfTheWholeRemainder(t *testing.T) {
	l := NewLedger(telemetry.NewRegistry())
	l.Open("t1", ToCredits(3))
	if err := l.Charge("t1", hostA, 1, ToCredits(1)); err != nil {
		t.Fatalf("charge: %v", err)
	}
	if err := l.Charge("t1", hostA, 2, ToCredits(2)); err != nil {
		t.Fatalf("charge of the whole remainder: %v", err)
	}
	if got := l.Account("t1").Remaining(); got != 0 {
		t.Fatalf("remaining = %v, want 0", got)
	}
	if err := l.Charge("t1", hostA, 3, 1); !errors.Is(err, ErrInsufficientBudget) {
		t.Fatalf("charge past an empty account: err = %v, want ErrInsufficientBudget", err)
	}
}

// TestAuditAcceptsAnEmptyAccount: a tenant that ends with nothing left,
// after a refund and a charge of its whole budget, breaks no invariant.
func TestAuditAcceptsAnEmptyAccount(t *testing.T) {
	l := NewLedger(telemetry.NewRegistry())
	l.Open("t1", ToCredits(4))
	if err := l.Charge("t1", hostA, 1, ToCredits(3)); err != nil {
		t.Fatalf("charge: %v", err)
	}
	l.Refund(hostA, 1)
	if err := l.Charge("t1", hostB, 1, ToCredits(4)); err != nil {
		t.Fatalf("charge of the whole budget: %v", err)
	}
	if got := l.Account("t1").Remaining(); got != 0 {
		t.Fatalf("remaining = %v, want 0", got)
	}
	if bad := l.Audit(); len(bad) != 0 {
		t.Errorf("audit of an account at 0: %v", bad)
	}
}

func TestUnknownTenantIsUnlimited(t *testing.T) {
	l := NewLedger(telemetry.NewRegistry())
	if err := l.Charge("anon", hostA, 7, ToCredits(1e6)); err != nil {
		t.Fatalf("charge against implicit account: %v", err)
	}
	l.Refund(hostA, 7)
	if bad := l.Audit(); len(bad) != 0 {
		t.Fatalf("audit: %v", bad)
	}
}

// TestLedgerConservationProperty is the unit-level half of the ISSUE's
// ledger-conservation property: randomized concurrent charge/refund
// streams across many tenants, with deliberate over-budget attempts and
// double refunds, must keep every account's
// Remaining + Outstanding == Budget and every refund matched to exactly
// one charge. Run under -race this also pins the Ledger's locking.
func TestLedgerConservationProperty(t *testing.T) {
	const (
		tenants = 8
		workers = 8
		opsEach = 2_000
	)
	l := NewLedger(telemetry.NewRegistry())
	names := make([]string, tenants)
	for i := range names {
		names[i] = string(rune('a' + i))
		l.Open(names[i], ToCredits(float64(50+25*i)))
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for op := 0; op < opsEach; op++ {
				tok := uint64(w)<<32 | uint64(op)
				tenant := names[rng.Intn(tenants)]
				amt := ToCredits(rng.Float64() * 5)
				if err := l.Charge(tenant, hostA, tok, amt); err != nil {
					continue // over budget: fine, must just not corrupt
				}
				switch rng.Intn(3) {
				case 0: // keep the charge (simulates a completed, paid run)
				case 1:
					l.Refund(hostA, tok)
				case 2: // double refund (cancel racing rollback)
					l.Refund(hostA, tok)
					l.Refund(hostA, tok)
				}
			}
		}(w)
	}
	wg.Wait()

	if bad := l.Audit(); len(bad) != 0 {
		t.Fatalf("conservation violated: %v", bad)
	}
	// Refunding every live token must restore Remaining == Budget for
	// every account: Σ(spend) and Σ(refunds) cancel to the credit.
	for w := 0; w < workers; w++ {
		for op := 0; op < opsEach; op++ {
			l.Refund(hostA, uint64(w)<<32|uint64(op))
		}
	}
	for _, a := range l.Accounts() {
		if a.Remaining() != a.Budget {
			t.Fatalf("tenant %q: remaining %v != budget %v after full refund", a.Tenant, a.Remaining(), a.Budget)
		}
		if a.Spent != a.Refunded {
			t.Fatalf("tenant %q: spent %v != refunded %v after full refund", a.Tenant, a.Spent, a.Refunded)
		}
	}
	if l.LiveCharges() != 0 {
		t.Fatalf("%d live charges after full refund", l.LiveCharges())
	}
}
