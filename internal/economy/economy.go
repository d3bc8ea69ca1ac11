// Package economy implements the computational-economy layer of the
// Nimrod/G-style market (ROADMAP item 1, PAPERS.md): per-tenant budget
// accounts charged when the Enactor's negotiation grants reservation
// tokens, and refunded — exactly once per token — when a token is
// cancelled, rolled back, reaped, or preempted.
//
// The unit of account is the Credit, a fixed-point integer worth one
// millionth of a "dollar" of host price. Integer arithmetic makes the
// conservation invariant exact rather than float-approximate: for every
// account, at every instant,
//
//	Remaining + (Spent − Refunded) == Budget + Deposits
//
// and every refund corresponds to a prior charge of the same token for
// the same amount. The property test in economy_test.go and the
// campaign-level test in internal/experiments drive randomized
// multi-tenant workloads — with faults, rollbacks, and preemptions —
// against exactly this invariant.
package economy

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"legion/internal/loid"
	"legion/internal/telemetry"
)

// Credits is the ledger's fixed-point currency: 1e6 Credits equal one
// unit of host price ($host_price × hours). Integer so that charge and
// refund sums conserve exactly.
type Credits int64

// CreditsPerUnit is the fixed-point scale.
const CreditsPerUnit = 1_000_000

// ToCredits converts a float price into Credits, rounding half away
// from zero.
func ToCredits(units float64) Credits {
	return Credits(math.Round(units * CreditsPerUnit))
}

// Units converts back to the float price scale (for display only —
// ledger arithmetic never leaves Credits).
func (c Credits) Units() float64 { return float64(c) / CreditsPerUnit }

func (c Credits) String() string { return fmt.Sprintf("%.6g", c.Units()) }

// ErrInsufficientBudget is returned by Charge when the debit would push
// an account's remaining balance below zero. The Enactor maps it to a
// schedule refusal, so an over-budget tenant's negotiation fails before
// any instance starts.
var ErrInsufficientBudget = errors.New("economy: insufficient budget")

// Unlimited is the budget given to tenants that never opened an
// account: effectively infinite, so cost-blind workloads ride through
// a ledger-enabled Enactor unchanged.
const Unlimited = Credits(math.MaxInt64 / 4)

// Account is one tenant's ledger: an initial budget plus deposits,
// gross spend, and gross refunds. All mutation goes through the owning
// Ledger so token attribution stays consistent.
type Account struct {
	Tenant   string
	Budget   Credits // initial budget + later deposits
	Spent    Credits // gross charges (never decremented)
	Refunded Credits // gross refunds (each matching a prior charge)
}

// Remaining is the balance available for new charges.
func (a Account) Remaining() Credits { return a.Budget - a.Spent + a.Refunded }

// Outstanding is the net spend currently held against live tokens.
func (a Account) Outstanding() Credits { return a.Spent - a.Refunded }

// tokenKey names a reservation token: its ID is unique only per host.
type tokenKey struct {
	host loid.LOID
	id   uint64
}

// charge records one token's debit so a later refund can return
// exactly the charged amount, exactly once.
type charge struct {
	tenant string
	amount Credits
}

// Ledger is the set of tenant accounts plus the token→charge table
// that makes refunds exact and idempotent. A single Ledger is shared by
// the Enactor (charges, cancel/rollback/reap refunds) and the
// rebalancer's preempting policy (preemption refunds).
type Ledger struct {
	mu       sync.Mutex
	accounts map[string]*Account
	charges  map[tokenKey]charge // live (unrefunded) token charges

	spendTotal   *telemetry.Counter
	refundTotal  *telemetry.Counter
	refusedTotal *telemetry.Counter
}

// NewLedger builds an empty ledger reporting into reg (nil uses the
// process-wide default registry).
func NewLedger(reg *telemetry.Registry) *Ledger {
	if reg == nil {
		reg = telemetry.Default
	}
	return &Ledger{
		accounts:     make(map[string]*Account),
		charges:      make(map[tokenKey]charge),
		spendTotal:   reg.Counter("legion_economy_spend_credits_total"),
		refundTotal:  reg.Counter("legion_economy_refund_credits_total"),
		refusedTotal: reg.Counter("legion_economy_budget_refusals_total"),
	}
}

// Open creates (or tops up) the tenant's account with the given budget.
// Opening an existing account adds to its budget, so Open doubles as a
// deposit operation. Unlike the implicit account Charge creates for
// never-opened tenants, an Open account starts from zero, not
// Unlimited.
func (l *Ledger) Open(tenant string, budget Credits) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.accounts[tenant]
	if a == nil {
		a = &Account{Tenant: tenant}
		l.accounts[tenant] = a
	}
	a.Budget += budget
}

// account returns the tenant's account, creating an Unlimited one on
// first touch. Callers hold l.mu.
func (l *Ledger) account(tenant string) *Account {
	a := l.accounts[tenant]
	if a == nil {
		a = &Account{Tenant: tenant, Budget: Unlimited}
		l.accounts[tenant] = a
	}
	return a
}

// Charge debits the tenant for the reservation token host issued as ID
// token. It fails with ErrInsufficientBudget (leaving the ledger
// untouched) if the account cannot cover the amount, and rejects double
// charges of a live token — a charge must be refunded first.
func (l *Ledger) Charge(tenant string, host loid.LOID, token uint64, amount Credits) error {
	if amount < 0 {
		return fmt.Errorf("economy: negative charge %v for token %v#%d", amount, host, token)
	}
	k := tokenKey{host, token}
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, dup := l.charges[k]; dup {
		return fmt.Errorf("economy: token %v#%d already charged to %q", host, token, prev.tenant)
	}
	a := l.account(tenant)
	if a.Remaining() < amount {
		l.refusedTotal.Inc()
		return fmt.Errorf("%w: tenant %q remaining %v < charge %v",
			ErrInsufficientBudget, tenant, a.Remaining(), amount)
	}
	a.Spent += amount
	l.charges[k] = charge{tenant: tenant, amount: amount}
	l.spendTotal.Add(int64(amount))
	return nil
}

// Refund returns a token's charge to its tenant. Unknown or
// already-refunded tokens are a no-op returning 0, which is what makes
// the enactor's overlapping cancel/rollback/reap/preempt paths
// exactly-once by construction.
func (l *Ledger) Refund(host loid.LOID, token uint64) Credits {
	k := tokenKey{host, token}
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.charges[k]
	if !ok {
		return 0
	}
	delete(l.charges, k)
	l.accounts[c.tenant].Refunded += c.amount
	l.refundTotal.Add(int64(c.amount))
	return c.amount
}

// Account returns a snapshot of the tenant's ledger state (zero-value
// Account with the tenant name if it was never touched).
func (l *Ledger) Account(tenant string) Account {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.accounts[tenant]; a != nil {
		return *a
	}
	return Account{Tenant: tenant}
}

// Accounts returns snapshots of every account, sorted by tenant.
func (l *Ledger) Accounts() []Account {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Account, 0, len(l.accounts))
	for _, a := range l.accounts {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// LiveCharges returns the number of charged-but-unrefunded tokens.
func (l *Ledger) LiveCharges() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.charges)
}

// Audit checks the conservation invariants and returns a list of
// violations (empty for a healthy ledger):
//
//   - per account: Remaining + Outstanding == Budget, Refunded ≤ Spent,
//     and Remaining ≥ 0;
//   - globally: the sum of live (unrefunded) charges equals the sum of
//     account Outstanding balances — every credit in flight is
//     attributed to exactly one token.
func (l *Ledger) Audit() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var bad []string
	var outstanding Credits
	for _, a := range l.accounts {
		if a.Remaining()+a.Outstanding() != a.Budget {
			bad = append(bad, fmt.Sprintf("tenant %q: remaining %v + outstanding %v != budget %v",
				a.Tenant, a.Remaining(), a.Outstanding(), a.Budget))
		}
		if a.Refunded > a.Spent {
			bad = append(bad, fmt.Sprintf("tenant %q: refunded %v > spent %v", a.Tenant, a.Refunded, a.Spent))
		}
		if a.Remaining() < 0 {
			bad = append(bad, fmt.Sprintf("tenant %q: negative remaining %v", a.Tenant, a.Remaining()))
		}
		outstanding += a.Outstanding()
	}
	var live Credits
	for _, c := range l.charges {
		live += c.amount
	}
	if live != outstanding {
		bad = append(bad, fmt.Sprintf("live token charges %v != outstanding spend %v", live, outstanding))
	}
	return bad
}
