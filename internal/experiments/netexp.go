package experiments

import (
	"context"
	"fmt"

	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/netobj"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
)

// E5NetworkObjects measures the §6 future-work extension: Network
// Objects managing communications resources, and the comm-aware stencil
// scheduler that reads their Collection records. A three-site metasystem with two fast
// links and one slow link runs a 12x6 stencil grid under three policies;
// the latency-weighted edge cut (ms of link latency crossed per
// iteration's halo exchange) is the objective.
func E5NetworkObjects() *Table {
	t := &Table{
		ID:    "E5",
		Title: "Network Objects (§6 extension): communication-aware stencil placement",
		Header: []string{"scheduler", "edge cut (count)", "weighted cut (ms)",
			"cross-zone fraction"},
	}
	for _, gen := range []scheduler.Generator{
		scheduler.Random{},
		scheduler.Stencil{Rows: e5Rows, Cols: e5Cols},
		scheduler.CommAware{Rows: e5Rows, Cols: e5Cols},
	} {
		if err := e5Row(t, gen); err != nil {
			t.AddRow(gen.Name(), "failed", err.Error(), "-")
		}
	}
	t.Notes = append(t.Notes,
		"topology: za-zb 5ms, zb-zc 5ms, za-zc 100ms; link state lives in Network Objects",
		"comm-aware chains zones by link latency so no band boundary pays the 100ms link")
	return t
}

const e5Rows, e5Cols = 12, 6

// e5Row builds a fresh three-site metasystem whose links are Collection
// records, places the grid with gen, and adds gen's row to t. The
// weighted cut reads link latency from the same records the scheduler
// queried.
func e5Row(t *Table, gen scheduler.Generator) error {
	ctx := context.Background()
	var hosts []sim.HostSpec
	cpusByZone := map[string][]int{"za": {16, 2}, "zb": {12, 4}, "zc": {8, 6}}
	for _, z := range []string{"za", "zb", "zc"} {
		for _, cpus := range cpusByZone[z] {
			hosts = append(hosts, sim.HostSpec{Arch: "x86", OS: "Linux", CPUs: cpus, MemoryMB: 1024, Zone: z, MaxShared: 1024})
		}
	}
	fleet := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 55}, Hosts: hosts})
	ms := fleet.MS
	defer ms.Close()
	zoneOf := map[loid.LOID]string{}
	for i, h := range fleet.Hosts {
		zoneOf[h.LOID()] = hosts[i].Zone
	}
	for _, l := range []*netobj.Link{
		netobj.NewLink(ms.Runtime(), "za", "zb", 5, 1000),
		netobj.NewLink(ms.Runtime(), "zb", "zc", 5, 1000),
		netobj.NewLink(ms.Runtime(), "za", "zc", 100, 10),
	} {
		if err := ms.Collection.Join(l.LOID(), l.Attributes(), ""); err != nil {
			return fmt.Errorf("joining link %v: %w", l.LOID(), err)
		}
	}
	class := ms.DefineClass("Cell", nil)
	rl, err := gen.Generate(ctx, ms.Env(), scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: e5Rows * e5Cols}},
		Res:     shareSpec(),
	})
	if err != nil {
		return err
	}
	links, err := ms.Collection.Query(netobj.Query)
	if err != nil {
		return fmt.Errorf("reading links: %w", err)
	}
	maps := rl.Masters[0].Mappings
	assignment := scheduler.AssignmentOf(maps)
	wcut := scheduler.WeightedEdgeCut(assignment, e5Rows, e5Cols,
		func(l loid.LOID) string { return zoneOf[l] }, netobj.LatenciesOf(links))
	t.AddRow(gen.Name(), scheduler.EdgeCut(assignment, e5Rows, e5Cols),
		fmt.Sprintf("%.1f", wcut), fmt.Sprintf("%.2f", crossZone(maps, zoneOf)))
	return nil
}

// crossZone is the fraction of mappings outside the modal zone.
func crossZone(maps []sched.Mapping, zoneOf map[loid.LOID]string) float64 {
	if len(maps) == 0 {
		return 0
	}
	counts := map[string]int{}
	for _, m := range maps {
		counts[zoneOf[m.Host]]++
	}
	best := 0
	for _, n := range counts {
		if n > best {
			best = n
		}
	}
	return 1 - float64(best)/float64(len(maps))
}
