package scheduler

import (
	"context"
	"errors"
	"fmt"
	"time"

	"legion/internal/loid"
	"legion/internal/sched"
)

// ErrBudgetInfeasible reports that even the cheapest deadline-feasible
// schedule exceeds the request's budget — Nimrod/G's "cannot be done
// within the deadline and budget" refusal, raised before any
// reservation is attempted.
var ErrBudgetInfeasible = errors.New("scheduler: cheapest deadline-feasible schedule exceeds budget")

// DeadlineBudget is the computational-economy generator (ROADMAP item
// 1): Nimrod/G's deadline/budget-constrained scheduling loop over the
// same E8 query machinery the other generators use. Each matching host
// is priced at $host_price × estimated task duration and assigned an
// estimated completion time from its load and CPU count; the generator
// then buys capacity cheapest-first, but only from hosts whose
// estimated completion fits the request's deadline — paying more for
// faster hosts exactly when the deadline forces it, and refusing
// (ErrBudgetInfeasible) when deadline and budget cannot both hold.
//
// With no deadline and no budget the economy has nothing to optimize:
// Generate delegates verbatim to Random, so a cost-blind request
// through DeadlineBudget is decision-for-decision identical to the
// baseline (pinned by TestE14EconomyDifferential).
type DeadlineBudget struct {
	// Estimate is the assumed per-instance task duration used to price
	// hosts and test deadline feasibility. Zero falls back to the
	// request's reservation Duration, then to one hour.
	Estimate time.Duration
	// Variants is how many alternative schedules to emit per entry
	// (next-cheapest feasible hosts); default 2.
	Variants int
	// Margin is the fraction of the deadline a host's estimated
	// completion must fit within to count as feasible (default 0.75).
	// The headroom absorbs what the snapshot cannot see: load added by
	// concurrent requests between the Collection pull and enactment.
	Margin float64
}

// Name implements Generator.
func (DeadlineBudget) Name() string { return "deadline-budget" }

// Generate implements Generator.
func (g DeadlineBudget) Generate(ctx context.Context, env *Env, req Request) (sched.RequestList, error) {
	if req.Res.Deadline <= 0 && req.Res.Budget <= 0 {
		// Unconstrained: behave exactly like the cost-blind baseline.
		return Random{}.Generate(ctx, env, req)
	}
	nVar := g.Variants
	if nVar <= 0 {
		nVar = 2
	}
	est := g.Estimate
	if est <= 0 {
		est = req.Res.Duration
	}
	if est <= 0 {
		est = time.Hour
	}
	// within is the deadline less Margin headroom.
	margin := g.Margin
	if margin <= 0 || margin > 1 {
		margin = 0.75
	}
	within := time.Duration(float64(req.Res.Deadline) * margin)

	var master sched.Master
	var totalCost float64
	buy := func(class loid.LOID, h cand) {
		master.Mappings = append(master.Mappings, h.mapping(class, 0))
		totalCost += h.Price * est.Hours()
	}
	for _, cr := range req.Classes {
		view, err := candidates(ctx, env, cr.Class)
		if err != nil {
			return sched.RequestList{}, err
		}
		hosts := ordered(view, byPrice)
		// Within one price tier, order is irrelevant to cost — shuffle it
		// so concurrent cheapest-first buyers spread across equally-cheap
		// hosts instead of all piling onto the lexicographically first
		// one and thrashing its admission bound.
		if env.Rand != nil {
			for lo := 0; lo < len(hosts); {
				hi := lo + 1
				for hi < len(hosts) && hosts[hi].Price == hosts[lo].Price {
					hi++
				}
				env.Rand.Shuffle(hi-lo, func(a, b int) {
					hosts[lo+a], hosts[lo+b] = hosts[lo+b], hosts[lo+a]
				})
				lo = hi
			}
		}
		// Only hosts that can finish at least one instance in time are
		// ever bought from or offered as alternatives.
		room := func(h cand) int {
			if req.Res.Deadline <= 0 {
				return cr.Count // no deadline: everything fits
			}
			return fitsWithin(h.HostInfo, est, within, cr.Count)
		}
		feasible := hosts[:0]
		for _, h := range hosts {
			if room(h) > 0 {
				feasible = append(feasible, h)
			}
		}
		placed := 0
		for fi := 0; fi < len(feasible) && placed < cr.Count; fi++ {
			h := feasible[fi]
			for k := min(room(h), cr.Count-placed); k > 0; k-- {
				// Alternatives: the next-cheapest hosts that also meet
				// the deadline, so enactment failures degrade to the
				// next-best buy instead of a rescheduling round trip.
				addVariants(&master, len(master.Mappings), cr.Class, upTo(feasible, fi+1, nVar))
				buy(cr.Class, h)
				placed++
			}
		}
		if placed < cr.Count {
			// The deadline leaves too little feasible capacity in the
			// whole fleet. Best effort: spread the remainder across the
			// fastest (least-loaded) hosts — the deadline will slip, but
			// by the least the estimates allow.
			coolest := ordered(view, byLoad)
			for i := 0; placed < cr.Count; i, placed = i+1, placed+1 {
				buy(cr.Class, coolest[i%len(coolest)])
			}
		}
	}
	if req.Res.Budget > 0 && totalCost > req.Res.Budget {
		return sched.RequestList{}, fmt.Errorf("%w: cost %.6g > budget %.6g (tenant %q)",
			ErrBudgetInfeasible, totalCost, req.Res.Budget, req.Res.Tenant)
	}
	return schedule(master, req), nil
}

// fitsWithin bounds how many of want instances a host can finish within
// the given time, under the same fluid capacity model the makespan judge
// applies: n tasks of the estimated duration complete in
// est×n×(1+load)/(CPUs×speed), where load includes the n/CPUs the placed
// instances themselves add once running.
func fitsWithin(h *HostInfo, est, within time.Duration, want int) int {
	cpus := float64(max(h.CPUs, 1))
	speed := h.Speed
	if speed <= 0 {
		speed = 1
	}
	n := 0
	for n < want {
		m := float64(n + 1)
		t := float64(est) * m * (1 + h.Load + m/cpus) / (cpus * speed)
		if time.Duration(t) > within {
			break
		}
		n++
	}
	return n
}
