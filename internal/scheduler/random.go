package scheduler

import (
	"context"

	"legion/internal/sched"
)

// Random implements the Figure 7 random placement generator.
//
// "The Random Scheduling Policy, as the name implies, randomly selects
// from the available resources that appear to be able to run the task.
// There is no consideration of load, speed, memory contention,
// communication patterns, or other factors that might affect the
// completion time of the task. The goal here is simplicity, not
// performance." It builds exactly one master schedule with no variants —
// "the equivalent of the default schedule generator for Legion Classes in
// releases prior to 1.5".
type Random struct{}

// Name implements Generator.
func (Random) Name() string { return "random" }

// Generate implements Generator, following the Fig 7 pseudocode line by
// line: for each ObjectClass, query the class for implementations, query
// the Collection for matching Hosts, then for each desired instance pick
// a Host at random and a compatible Vault at random.
func (Random) Generate(ctx context.Context, env *Env, req Request) (sched.RequestList, error) {
	if env.Rand == nil {
		panic("scheduler: Random requires Env.Rand")
	}
	var master sched.Master
	for _, cr := range req.Classes {
		// Random only indexes into the view, so it reads the cache's
		// shared snapshot in place instead of copying 100k HostInfos per
		// placement.
		hosts, err := candidates(ctx, env, cr.Class)
		if err != nil {
			return sched.RequestList{}, err
		}
		for i := 0; i < cr.Count; i++ {
			master.Mappings = append(master.Mappings, randomMapping(env.Rand, cr.Class, hosts))
		}
	}
	return schedule(master, req), nil
}
