package scheduler

import (
	"context"
	"fmt"

	"legion/internal/sched"
)

// Replicated emits k-of-n equivalence-class schedules (§3.3: "We will
// also support 'k out of n' scheduling, where the Scheduler specifies an
// equivalence class of n resources and asks the Enactor to start k
// instances of the same object on them").
//
// For each requested class it ranks matching hosts by load, takes the
// best N as the equivalence class, and asks for Count instances (k =
// Count); the Enactor then binds to whichever K resources actually grant
// reservations. This is the natural scheduler for replicated services:
// the caller cares that k replicas run on distinct machines, not which
// machines.
type Replicated struct {
	// N is the equivalence-class size; 0 means all matching hosts.
	N int
}

// Name implements Generator.
func (Replicated) Name() string { return "replicated-k-of-n" }

// Generate implements Generator.
func (g Replicated) Generate(ctx context.Context, env *Env, req Request) (sched.RequestList, error) {
	var master sched.Master
	for _, cr := range req.Classes {
		hosts, err := candidates(ctx, env, cr.Class)
		if err != nil {
			return sched.RequestList{}, err
		}
		if len(hosts) < cr.Count {
			return sched.RequestList{}, fmt.Errorf(
				"%w: class %v wants %d distinct hosts, %d available",
				ErrNoResources, cr.Class, cr.Count, len(hosts))
		}
		n := g.N
		if n <= 0 || n > len(hosts) {
			n = len(hosts)
		}
		if n < cr.Count {
			n = cr.Count
		}
		group := sched.KofN{Class: cr.Class, K: cr.Count}
		for _, h := range best(owned(hosts), byLoad, n) {
			group.Alternatives = append(group.Alternatives, h.hostVault(0))
		}
		master.KofN = append(master.KofN, group)
	}
	return schedule(master, req), nil
}
