package scheduler

import (
	"context"
	"sync/atomic"

	"legion/internal/sched"
)

// RoundRobin spreads instances across matching hosts in LOID order,
// remembering its position across calls. It is deterministic, making it
// the baseline for reproducible experiments.
type RoundRobin struct {
	next atomic.Uint64
}

// Name implements Generator.
func (*RoundRobin) Name() string { return "round-robin" }

// Generate implements Generator.
func (rr *RoundRobin) Generate(ctx context.Context, env *Env, req Request) (sched.RequestList, error) {
	var master sched.Master
	for _, cr := range req.Classes {
		hosts, err := candidates(ctx, env, cr.Class)
		if err != nil {
			return sched.RequestList{}, err
		}
		for i := 0; i < cr.Count; i++ {
			h := &hosts[int(rr.next.Add(1)-1)%len(hosts)]
			master.Mappings = append(master.Mappings, h.mapping(cr.Class, 0))
		}
	}
	return schedule(master, req), nil
}

// LoadAware places instances on the least-loaded matching hosts,
// accounting for the load its own placements add (instances/CPUs). It
// also emits variant schedules pointing at the next-least-loaded
// alternatives, so enactment failures degrade gracefully.
//
// This is the kind of "smarter" Scheduler the paper's §4 template points
// toward: same infrastructure interactions as Random, better placement
// from the same Collection snapshot.
type LoadAware struct {
	// Variants is how many alternative schedules to emit; default 2.
	Variants int
}

// Name implements Generator.
func (LoadAware) Name() string { return "load-aware" }

// Generate implements Generator.
func (g LoadAware) Generate(ctx context.Context, env *Env, req Request) (sched.RequestList, error) {
	nVar := g.Variants
	if nVar <= 0 {
		nVar = 2
	}
	var master sched.Master
	for _, cr := range req.Classes {
		hosts, err := candidates(ctx, env, cr.Class)
		if err != nil {
			return sched.RequestList{}, err
		}
		pool := owned(hosts)
		for i := 0; i < cr.Count; i++ {
			// Least projected load wins; each placement re-ranks the pool,
			// and reads only its head: the winner and the next-best
			// alternatives, which become this entry's variants.
			top := best(pool, byProjectedLoad, 1+nVar)
			idx := len(master.Mappings)
			master.Mappings = append(master.Mappings, top[0].mapping(cr.Class, 0))
			addVariants(&master, idx, cr.Class, top[1:])
			top[0].placed++
		}
	}
	return schedule(master, req), nil
}

// CostAware prefers the cheapest matching hosts ($host_cost_per_cpu),
// breaking ties by load. It demonstrates scheduling on the richer
// descriptive information §3.1 says Hosts can export ("the amount charged
// per CPU cycle consumed").
type CostAware struct{}

// Name implements Generator.
func (CostAware) Name() string { return "cost-aware" }

// Generate implements Generator.
func (CostAware) Generate(ctx context.Context, env *Env, req Request) (sched.RequestList, error) {
	var master sched.Master
	for _, cr := range req.Classes {
		hosts, err := candidates(ctx, env, cr.Class)
		if err != nil {
			return sched.RequestList{}, err
		}
		cheapest := best(owned(hosts), byCostThenLoad, cr.Count)
		for i := 0; i < cr.Count; i++ {
			master.Mappings = append(master.Mappings, cheapest[i%len(cheapest)].mapping(cr.Class, 0))
		}
	}
	return schedule(master, req), nil
}
