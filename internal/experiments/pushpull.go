package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"legion/internal/attr"
	"legion/internal/collection/daemon"
	"legion/internal/core"
	"legion/internal/sim"
)

// A4PushVsPull compares the Collection's two population models (DESIGN
// D4): hosts pushing their own state on reassessment versus the Data
// Collection Daemon pulling snapshots — at equal periods, measuring the
// load error a querying Scheduler observes and the update traffic.
func A4PushVsPull(steps int) *Table {
	if steps < 2 {
		steps = 50
	}
	t := &Table{
		ID:     "A4",
		Title:  "Ablation D4: push (host-initiated) vs pull (Data Collection Daemon)",
		Header: []string{"model", "period", "collection updates", "mean |load error| at query time"},
	}
	ctx := context.Background()
	const nHosts = 6
	for _, model := range []string{"push", "pull"} {
		for _, period := range []int{1, 5} {
			fleet := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 44}, Hosts: sim.UniformSpecs(nHosts, 4)})
			ms := fleet.MS
			rng := rand.New(rand.NewSource(44))
			var d *daemon.Daemon
			if model == "pull" {
				// Pull-only world: hosts reassess locally, never push;
				// the daemon moves the data.
				for _, h := range fleet.Hosts {
					h.ClearPushTargets()
				}
				d = daemon.New(ms.Runtime(), daemon.Config{})
				for _, h := range fleet.Hosts {
					d.Watch(h.LOID())
				}
				d.PushInto(ms.Collection.LOID())
			}
			_, u0 := ms.Collection.Stats()
			totalErr, samples := 0.0, 0
			for s := 0; s < steps; s++ {
				// True load moves every step; hosts always notice locally.
				for _, h := range fleet.Hosts {
					h.SetExternalLoad(rng.Float64())
				}
				if model == "pull" {
					ms.ReassessAll(ctx) // local only: push targets cleared
					if s%period == 0 {
						d.Sweep(ctx)
					}
				} else if s%period == 0 {
					ms.ReassessAll(ctx) // reassess + push
				}
				// A Scheduler queries now: compare recorded vs true load.
				recs, err := ms.Collection.Query("defined($host_load)")
				if err != nil {
					continue
				}
				for _, r := range recs {
					v, _ := attr.Lookup(r.Attrs, "host_load")
					seen, _ := v.AsFloat()
					for _, h := range fleet.Hosts {
						if h.LOID() == r.Member {
							totalErr += math.Abs(seen - h.Load())
							samples++
						}
					}
				}
			}
			_, u1 := ms.Collection.Stats()
			mean := 0.0
			if samples > 0 {
				mean = totalErr / float64(samples)
			}
			t.AddRow(model, fmt.Sprintf("every %d steps", period), u1-u0,
				fmt.Sprintf("%.3f", mean))
			if d != nil {
				d.Stop()
			}
			ms.Close()
		}
	}
	t.Notes = append(t.Notes,
		"both models converge to the same staleness at equal period; they differ in who pays",
		"pull centralizes policy in the daemon (footnote 4); push spreads it across Hosts")
	return t
}
