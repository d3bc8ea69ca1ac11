package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"legion/internal/attr"
	"legion/internal/classobj"
	"legion/internal/collection"
	"legion/internal/enactor"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/sched"
	"legion/internal/telemetry"
	"legion/internal/vault"
)

// E8ConcurrentPipeline measures the two hot-path optimizations of the
// concurrent placement pipeline against their own ablations:
//
//   - Collection queries: a selective conjunctive query over N hosts,
//     answered through the inverted attribute index vs the full linear
//     scan (SetIndexedKeys() disabled). Both run with a warm parse
//     cache, so the delta is candidate pruning alone.
//   - Enactment: reserve+enact of a width-W schedule over simulated
//     1 ms wide-area links, with the per-resource calls fanned out
//     (Parallelism 8) vs the serial host-by-host walk (Parallelism 1).
//
// The speedup column is the ablation's mean latency over the optimized
// mean for the same scale.
func E8ConcurrentPipeline(sizes, widths []int) *Table {
	if len(sizes) == 0 {
		sizes = []int{1000, 10000}
	}
	if len(widths) == 0 {
		widths = []int{4, 16, 32}
	}
	t := &Table{
		ID:     "E8",
		Title:  "Concurrent placement pipeline: indexed queries and parallel enactment",
		Header: []string{"stage", "scale", "mode", "mean latency", "speedup"},
	}

	for _, n := range sizes {
		indexed := queryLatency(n, true)
		scan := queryLatency(n, false)
		scale := fmt.Sprintf("%d hosts", n)
		t.AddRow("query", scale, "indexed", indexed, "")
		t.AddRow("query", scale, "full scan", scan,
			fmt.Sprintf("%.1fx", float64(scan)/float64(indexed)))
	}
	for _, w := range widths {
		par := enactLatency(w, 8)
		ser := enactLatency(w, 1)
		scale := fmt.Sprintf("width %d", w)
		t.AddRow("reserve+enact", scale, "parallel (8)", par, "")
		t.AddRow("reserve+enact", scale, "serial walk", ser,
			fmt.Sprintf("%.1fx", float64(ser)/float64(par)))
	}
	t.Notes = append(t.Notes,
		"query: `$host_zone == \"z3\" and $host_load < 0.5` (5% zone selectivity), warm parse cache in both modes",
		"speedup = ablation latency / optimized latency at the same scale",
		"enact: every orb call carries a simulated 1ms link latency; serial latency grows with width, fan-out stays near-flat")
	return t
}

// queryLatency builds an n-host Collection and times the selective query
// with the attribute index on or off.
func queryLatency(n int, indexed bool) time.Duration {
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(telemetry.NewDisabled())
	c := collection.New(rt, nil)
	if !indexed {
		c.SetIndexedKeys() // revert to the linear-scan ablation
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < n; i++ {
		c.Join(loid.LOID{Domain: "uva", Class: "Host", Instance: uint64(i + 1)},
			[]attr.Pair{
				{Name: "host_zone", Value: attr.String(fmt.Sprintf("z%d", i%20))},
				{Name: "host_arch", Value: attr.String("x86")},
				{Name: "host_load", Value: attr.Float(rng.Float64())},
			}, "")
	}
	const q = `$host_zone == "z3" and $host_load < 0.5`
	if _, err := c.Query(q); err != nil { // warm the parse cache
		return 0
	}
	const reps = 20
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := c.Query(q); err != nil {
			return 0
		}
	}
	return time.Since(t0) / reps
}

// enactLatency wires width hosts behind simulated 1ms links and times
// one reserve+enact episode at the given Enactor parallelism.
func enactLatency(width, parallelism int) time.Duration {
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(telemetry.NewDisabled())
	rt.SetLatency(time.Millisecond, 0)
	v := vault.New(rt, vault.Config{Zone: "z1"})
	hosts := make([]*host.Host, width)
	for i := range hosts {
		hosts[i] = host.New(rt, host.Config{
			Arch: "x86", OS: "Linux", CPUs: 64, MemoryMB: 1 << 14, Zone: "z1",
			MaxShared: 1024, Vaults: []loid.LOID{v.LOID()},
		})
	}
	class := classobj.New(rt, classobj.Config{Name: "Worker"})
	e := enactor.New(rt, enactor.Config{Parallelism: parallelism})
	var maps []sched.Mapping
	for i := 0; i < width; i++ {
		maps = append(maps, sched.Mapping{Class: class.LOID(), Host: hosts[i].LOID(), Vault: v.LOID()})
	}
	ctx := context.Background()
	const trials = 3
	var total time.Duration
	for trial := 0; trial < trials; trial++ {
		req := sched.RequestList{
			ID:      e.NewRequestID(),
			Masters: []sched.Master{{Mappings: maps}},
			Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
		}
		t0 := time.Now()
		fb := e.MakeReservations(ctx, req)
		if !fb.Success {
			return 0
		}
		if reply := e.EnactSchedule(ctx, req.ID); !reply.Success {
			return 0
		}
		total += time.Since(t0)
	}
	return total / trials
}
