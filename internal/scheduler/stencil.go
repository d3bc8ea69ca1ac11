package scheduler

import (
	"context"
	"fmt"
	"sort"

	"legion/internal/loid"
	"legion/internal/sched"
)

// Stencil is a specialized placement policy for structured multi-object
// applications (paper §4.3): "we are working with the DoD MSRC in
// Stennis, Mississippi to develop a Scheduler for an MPI-based ocean
// simulation which uses nearest-neighbor communication within a 2-D
// grid."
//
// The request must contain exactly one class whose Count equals
// Rows*Cols; instance i represents grid cell (i/Cols, i%Cols) in
// row-major order. The policy partitions the grid into contiguous bands
// of rows, sized proportionally to each host's free capacity
// (CPUs*(1-load)), so nearest-neighbour edges stay within a host wherever
// possible. The schedule quality metric is the edge cut (see EdgeCut),
// which the specialized-vs-generic experiment reports.
type Stencil struct {
	Rows, Cols int
}

// Name implements Generator.
func (Stencil) Name() string { return "stencil" }

// Generate implements Generator.
func (g Stencil) Generate(ctx context.Context, env *Env, req Request) (sched.RequestList, error) {
	ranked, err := gridCandidates(ctx, env, req, g.Name(), g.Rows, g.Cols)
	if err != nil {
		return sched.RequestList{}, err
	}
	return schedule(bandSchedule(req.Classes[0].Class, ranked, g.Rows, g.Cols), req), nil
}

// gridCandidates checks that the request is one class of rows×cols
// instances and ranks its candidates by free capacity, largest first, so
// the biggest contiguous band lands on the roomiest machine.
func gridCandidates(ctx context.Context, env *Env, req Request, name string, rows, cols int) ([]cand, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("scheduler: %s needs positive grid dims, got %dx%d", name, rows, cols)
	}
	if len(req.Classes) != 1 || req.Classes[0].Count != rows*cols {
		return nil, fmt.Errorf("scheduler: %s wants one class with count %d", name, rows*cols)
	}
	view, err := candidates(ctx, env, req.Classes[0].Class)
	if err != nil {
		return nil, err
	}
	return ordered(view, byFreeCapacity), nil
}

// apportionRows distributes rows to the (pre-ordered) hosts proportional
// to free capacity, largest-remainder method: every row is owned and at
// most len(hosts) bands exist.
func apportionRows(hosts []cand, rows int) []int {
	total := 0.0
	for _, h := range hosts {
		total += h.freeCapacity()
	}
	quota := make([]int, len(hosts))
	assigned := 0
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, len(hosts))
	for i, h := range hosts {
		exact := float64(rows) * h.freeCapacity() / total
		quota[i] = int(exact)
		fracs[i] = frac{i: i, f: exact - float64(quota[i])}
		assigned += quota[i]
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].i < fracs[b].i
	})
	for r := assigned; r < rows; r++ {
		quota[fracs[(r-assigned)%len(fracs)].i]++
	}
	return quota
}

// bandSchedule emits a row-major master schedule assigning contiguous
// row bands to hosts in the given order.
func bandSchedule(class loid.LOID, hosts []cand, rows, cols int) sched.Master {
	quota := apportionRows(hosts, rows)
	master := sched.Master{Mappings: make([]sched.Mapping, 0, rows*cols)}
	hostIdx, rowsLeft := 0, 0
	for row := 0; row < rows; row++ {
		for rowsLeft == 0 {
			rowsLeft = quota[hostIdx]
			if rowsLeft == 0 {
				hostIdx++
				continue
			}
			break
		}
		h := hosts[hostIdx]
		for col := 0; col < cols; col++ {
			master.Mappings = append(master.Mappings, h.mapping(class, 0))
		}
		rowsLeft--
		if rowsLeft == 0 {
			hostIdx++
		}
	}
	return master
}

// EdgeCut counts nearest-neighbour grid edges whose endpoints land on
// different hosts — the communication cost a stencil application pays per
// iteration. assignment[i] is the host of grid cell (i/cols, i%cols).
func EdgeCut(assignment []loid.LOID, rows, cols int) int {
	if len(assignment) != rows*cols {
		panic("scheduler: assignment length mismatch")
	}
	cut := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if c+1 < cols && assignment[i] != assignment[i+1] {
				cut++
			}
			if r+1 < rows && assignment[i] != assignment[i+cols] {
				cut++
			}
		}
	}
	return cut
}

// AssignmentOf extracts the per-cell host list from a schedule's resolved
// mappings, for EdgeCut.
func AssignmentOf(mappings []sched.Mapping) []loid.LOID {
	out := make([]loid.LOID, len(mappings))
	for i, m := range mappings {
		out[i] = m.Host
	}
	return out
}
