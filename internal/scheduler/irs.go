package scheduler

import (
	"context"

	"legion/internal/sched"
)

// IRS implements Improved Random Scheduling (Figures 8 and 9).
//
// "The improved version generates n random mappings for each object
// class, and then constructs n schedules out of them. The Scheduler could
// just as easily build n schedules through calls to the original
// generator function, but IRS does fewer lookups in the Collection."
//
// The master schedule takes the first mapping of each instance's list;
// each further schedule l becomes a variant containing only the mappings
// that differ from the master ("construct a list of all that do not
// appear in the master list"), with the coverage bitmap set accordingly.
type IRS struct {
	// NSched is the number of mappings generated per instance (the
	// pseudocode's n / NSched global). Values below 2 behave like Random
	// with no variants; the default is 4.
	NSched int
}

// Name implements Generator.
func (IRS) Name() string { return "irs" }

// Generate implements Generator per the Fig 8 pseudocode.
func (g IRS) Generate(ctx context.Context, env *Env, req Request) (sched.RequestList, error) {
	if env.Rand == nil {
		panic("scheduler: IRS requires Env.Rand")
	}
	n := g.NSched
	if n < 1 {
		n = 4
	}

	// choices[i][l] is the l-th mapping generated for instance i.
	var choices [][]sched.Mapping
	for _, cr := range req.Classes {
		// One class-implementations query + one Collection lookup per
		// class — this is the lookup economy over calling Random n times.
		hosts, err := candidates(ctx, env, cr.Class)
		if err != nil {
			return sched.RequestList{}, err
		}
		for i := 0; i < cr.Count; i++ {
			list := make([]sched.Mapping, n)
			for l := range list {
				list[l] = randomMapping(env.Rand, cr.Class, hosts)
			}
			choices = append(choices, list)
		}
	}

	// Master = first item from each instance list.
	master := sched.Master{Mappings: make([]sched.Mapping, len(choices))}
	for i, list := range choices {
		master.Mappings[i] = list[0]
	}
	// Variants = l-th components that differ from the master.
	for l := 1; l < n; l++ {
		var v sched.Variant
		for i, list := range choices {
			if list[l] != master.Mappings[i] {
				v.AddReplacement(i, list[l])
			}
		}
		if v.Covers.Any() {
			master.Variants = append(master.Variants, v)
		}
	}
	return schedule(master, req), nil
}
