package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"legion/internal/attr"
	"legion/internal/collection"
	"legion/internal/collection/daemon"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/telemetry"
)

// E9HierarchicalCollections measures the federation layer from two
// sides:
//
//   - Query: the selective E8 query over nHosts total records, answered
//     by a Router scatter-gather over 1/2/4 Collection shards vs the
//     direct single-Collection baseline. Each shard holds 1/N of the
//     records, so per-shard scan/prune work shrinks as the fan-out
//     widens; the merge and the extra local ORB hop are the overhead
//     being priced.
//   - Update: one Data Collection Daemon sweeping nRes resources for
//     `sweeps` rounds, each sweep pushed into the Collection as one
//     batch. The column is the number of Collection-bound ORB calls the
//     daemon measured.
func E9HierarchicalCollections(nHosts, nRes, sweeps int) *Table {
	if nHosts <= 0 {
		nHosts = 10000
	}
	if nRes <= 0 {
		nRes = 64
	}
	if sweeps <= 0 {
		sweeps = 10
	}
	t := &Table{
		ID:     "E9",
		Title:  "Hierarchical Collections: sharded scatter-gather queries, batched updates",
		Header: []string{"stage", "scale", "mode", "latency", "orb calls", "vs baseline"},
	}

	scale := fmt.Sprintf("%d hosts", nHosts)
	modes := []queryMode{
		{label: "direct (1 collection)", shards: 0},
		{label: "router, 1 shard", shards: 1},
		{label: "router, 2 shards", shards: 2},
		{label: "router, 4 shards", shards: 4},
		{label: "direct, 1ms link", shards: 0, link: time.Millisecond},
		{label: "router, 4 shards, 1ms links", shards: 4, link: time.Millisecond},
		{label: "serial scatter, 1ms links", shards: 4, link: time.Millisecond, serial: true},
	}
	lat := federatedQueryLatencies(nHosts, modes)
	for i, m := range modes {
		// Each regime (in-process vs 1ms links) is compared against its
		// own direct single-Collection baseline.
		base := lat[0]
		if m.link > 0 {
			base = lat[4]
		}
		ratio := ""
		if i != 0 && i != 4 {
			ratio = fmt.Sprintf("%.2fx", float64(lat[i])/float64(base))
		}
		t.AddRow("query", scale, m.label, lat[i], "", ratio)
	}

	scale = fmt.Sprintf("%d res x %d sweeps", nRes, sweeps)
	t.AddRow("update", scale, "one batch per sweep", "", daemonPushCalls(nRes, sweeps), "")

	t.Notes = append(t.Notes,
		"query: `$host_zone == \"z3\" and $host_load < 0.5`, default indexed keys, warm parse cache; latency = best round mean over interleaved rounds",
		"vs baseline = mode latency / the same regime's direct baseline (in-process rows vs in-process direct; 1ms-link rows vs the 1ms-link direct call)",
		"1ms links: every orb call sleeps 1ms — the concurrent scatter pays the link once, the serial ablation once per shard",
		"update: orb calls = Collection-bound update RPCs; the daemon pushes each sweep as one batch per Collection")
	return t
}

// queryMode is one measured configuration of the E9 query stage.
type queryMode struct {
	label  string
	shards int           // 0: one Collection, no Router
	link   time.Duration // simulated per-call link latency (0: in-process)
	serial bool          // Parallelism 1: the serial shard-by-shard ablation
}

// federatedQueryLatencies builds one population of nHosts records per
// mode — directly in one Collection, or behind a Router over the
// mode's shard count — and times the selective query against every
// mode with the measurement rounds interleaved, so machine-load drift
// hits all modes alike instead of biasing whichever ran last. Per mode
// it returns the fastest round's mean, the usual noise-robust
// estimator on a shared machine. Modes with a link latency route the
// direct query through the orb too (a remote Collection service is one
// call away; the Router's scatter pays the link once when concurrent,
// once per shard when serial).
func federatedQueryLatencies(nHosts int, modes []queryMode) []time.Duration {
	const q = `$host_zone == "z3" and $host_load < 0.5`
	const rounds = 7
	ctx := context.Background()

	queries := make([]func() error, len(modes))
	repsOf := make([]int, len(modes))
	for m, mode := range modes {
		rt := orb.NewRuntime("uva")
		rt.SetMetrics(telemetry.NewDisabled())
		rng := rand.New(rand.NewSource(8))
		hostAttrs := func(i int) []attr.Pair {
			return []attr.Pair{
				{Name: "host_zone", Value: attr.String(fmt.Sprintf("z%d", i%20))},
				{Name: "host_arch", Value: attr.String("x86")},
				{Name: "host_load", Value: attr.Float(rng.Float64())},
			}
		}
		repsOf[m] = 10
		if mode.link > 0 {
			repsOf[m] = 3 // link-bound: fewer reps keep the sweep short
		}
		if mode.shards == 0 {
			c := collection.New(rt, nil)
			for i := 0; i < nHosts; i++ {
				c.Join(loid.LOID{Domain: "uva", Class: "Host", Instance: uint64(i + 1)}, hostAttrs(i), "")
			}
			if mode.link > 0 {
				rt.SetLatency(mode.link, 0) // after population: joins are free
				queries[m] = func() error {
					_, err := rt.Call(ctx, c.LOID(), proto.MethodQueryCollection, proto.QueryArgs{Query: q})
					return err
				}
			} else {
				queries[m] = func() error {
					_, err := c.Query(q)
					return err
				}
			}
		} else {
			loids := make([]loid.LOID, mode.shards)
			for i := range loids {
				loids[i] = collection.New(rt, nil).LOID()
			}
			cfg := collection.RouterConfig{Shards: loids}
			if mode.serial {
				cfg.Parallelism = 1
			}
			r := collection.NewRouter(rt, cfg)
			for i := 0; i < nHosts; i++ {
				member := loid.LOID{Domain: "uva", Class: "Host", Instance: uint64(i + 1)}
				if err := r.Join(ctx, member, hostAttrs(i), ""); err != nil {
					return make([]time.Duration, len(modes))
				}
			}
			if mode.link > 0 {
				rt.SetLatency(mode.link, 0)
			}
			queries[m] = func() error {
				_, _, err := r.QueryPartial(ctx, q)
				return err
			}
		}
		if err := queries[m](); err != nil { // warm the parse caches
			return make([]time.Duration, len(modes))
		}
	}

	best := make([]time.Duration, len(queries))
	for r := 0; r < rounds; r++ {
		for m, query := range queries {
			reps := repsOf[m]
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				if err := query(); err != nil {
					return make([]time.Duration, len(queries))
				}
			}
			if d := time.Since(t0) / time.Duration(reps); best[m] == 0 || d < best[m] {
				best[m] = d
			}
		}
	}
	return best
}

// daemonPushCalls sweeps nRes hosts `sweeps` times and returns how many
// Collection-bound update calls the daemon issued.
func daemonPushCalls(nRes, sweeps int) int64 {
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(telemetry.NewDisabled())
	c := collection.New(rt, nil)
	d := daemon.New(rt, daemon.Config{Interval: time.Hour})
	for i := 0; i < nRes; i++ {
		h := host.New(rt, host.Config{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 1024, Zone: "z1"})
		d.Watch(h.LOID())
	}
	d.PushInto(c.LOID())
	ctx := context.Background()
	for s := 0; s < sweeps; s++ {
		d.Sweep(ctx)
	}
	return d.PushCalls()
}
