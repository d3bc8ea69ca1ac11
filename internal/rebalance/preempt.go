package rebalance

import (
	"context"
	"math"
	"sort"

	"legion/internal/classobj"
	"legion/internal/core"
	"legion/internal/economy"
	"legion/internal/loid"
	"legion/internal/proto"
)

// PreemptingPolicy is the computational economy's eviction arm
// (DESIGN.md §15): when a spot-class host's trigger fires — a paying
// tenant's deadline is at risk on capacity that was sold as
// preemptible — it evicts the lowest-priority instances running there
// and migrates them away, preferring reserved-class destinations so the
// displaced work does not just queue up behind the next preemption.
//
// Eviction is an economy event, not only a placement one: the victim's
// source reservation token is marked preempted on the host (so the E10
// conservation audit does not report the stranded token as a leak once
// the instance has moved) and its ledger charge is refunded — the
// tenant does not pay for preempted time. Both are exactly-once: the
// preempted set is idempotent and economy.Ledger.Refund refunds a
// token at most once, so a re-fired trigger or a failed-then-retried
// migration cannot double-refund.
//
// The actual move rides the existing machinery — core.Migrate under the
// Rebalancer's damping, with EnsureRunning converging a failed move
// back to running-exactly-once.
type PreemptingPolicy struct {
	// MaxShedPerEvent bounds how many instances one trigger event may
	// evict (default 1).
	MaxShedPerEvent int
	// Priority maps an instance to its scheduling priority class; the
	// lowest classes are evicted first. Nil treats every instance as
	// priority 0 (any instance is preemptible). The class records do not
	// retain request priority, so the operator wiring the policy
	// supplies the mapping.
	Priority func(inst loid.LOID) int
	// Ledger, when non-nil, is refunded for each victim's source
	// reservation at eviction time.
	Ledger *economy.Ledger
	// Query selects candidate destination records (default
	// "defined($host_load)").
	Query string
}

// Plan implements Policy.
func (p *PreemptingPolicy) Plan(ctx context.Context, ev proto.NotifyArgs, ms *core.Metasystem, classes []*classobj.Class) ([]Move, error) {
	src := ms.HostByLOID(ev.Source)
	if src == nil || !src.Spot() {
		// Reserved capacity is never preempted; its overload is
		// LeastLoaded's problem.
		return nil, nil
	}
	victims := victimsOn(ev.Source, classes, math.MaxInt)
	if len(victims) == 0 {
		return nil, nil
	}
	// Cheapest blood first: lowest priority class, LOID tiebreak for
	// determinism.
	if p.Priority != nil {
		for i := range victims {
			victims[i].prio = p.Priority(victims[i].inst)
		}
	}
	sort.Slice(victims, func(a, b int) bool {
		if victims[a].prio != victims[b].prio {
			return victims[a].prio < victims[b].prio
		}
		return victims[a].inst.Less(victims[b].inst)
	})
	victims = victims[:min(len(victims), max(p.MaxShedPerEvent, 1))]

	// Reserved-class destinations first (so the evictee stops being
	// preemptible), then the usual vault/zone/load ranking within each
	// class.
	moves := spread(ms, victims, candidateHosts(ctx, ev.Source, ms, p.Query), true, currentLoad)
	// Economy bookkeeping before the moves are attempted: the eviction
	// decision, not the migration outcome, is what ends the tenant's
	// obligation to pay for this grant.
	for _, m := range moves {
		if tok, ok := src.TokenFor(m.Instance); ok {
			src.NotePreempted(tok.ID)
			if p.Ledger != nil {
				p.Ledger.Refund(tok.Host, tok.ID)
			}
		}
	}
	return moves, nil
}
