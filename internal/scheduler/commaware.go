package scheduler

import (
	"context"
	"slices"

	"legion/internal/loid"
	"legion/internal/netobj"
	"legion/internal/sched"
)

// CommAware is the Network-Object-aware stencil scheduler: §6's future
// work ("We are developing Network Objects to manage communications
// resources") combined with the §4.3 specialized stencil policy.
//
// Like Stencil, it partitions a Rows x Cols grid into contiguous row
// bands sized by host capacity — but it also reads the link records in
// the Collection and arranges the bands so that adjacent bands live in
// network-close zones: hosts are grouped by zone, zones are chained
// greedily by link latency, and bands are walked along that chain.
// Cross-zone grid edges (the expensive ones) then only occur at
// zone-chain boundaries. With no link records every zone pair costs the
// same and the zones keep alphabetical order.
type CommAware struct {
	Rows, Cols int
}

// Name implements Generator.
func (CommAware) Name() string { return "comm-aware" }

// Generate implements Generator.
func (g CommAware) Generate(ctx context.Context, env *Env, req Request) (sched.RequestList, error) {
	ranked, err := gridCandidates(ctx, env, req, g.Name(), g.Rows, g.Cols)
	if err != nil {
		return sched.RequestList{}, err
	}
	links, err := queryCollection(ctx, env, netobj.Query)
	if err != nil {
		return sched.RequestList{}, err
	}
	// Group the capacity ranking by zone: each group keeps it.
	byZone := map[string][]cand{}
	for _, h := range ranked {
		byZone[h.Zone] = append(byZone[h.Zone], h)
	}
	zones := make([]string, 0, len(byZone))
	for z := range byZone {
		zones = append(zones, z)
	}
	slices.Sort(zones)

	chained := make([]cand, 0, len(ranked))
	for _, z := range chainZones(zones, netobj.LatenciesOf(links.Records)) {
		chained = append(chained, byZone[z]...)
	}
	return schedule(bandSchedule(req.Classes[0].Class, chained, g.Rows, g.Cols), req), nil
}

// chainZones orders zones as a greedy nearest-neighbour chain under the
// link latencies, starting from the first zone; ties keep input order.
func chainZones(zones []string, lat netobj.Latencies) []string {
	if len(zones) < 3 {
		return zones
	}
	remaining := append([]string(nil), zones[1:]...)
	chain := []string{zones[0]}
	for len(remaining) > 0 {
		last := chain[len(chain)-1]
		best, bestLat := 0, lat.MS(last, remaining[0])
		for i := 1; i < len(remaining); i++ {
			if l := lat.MS(last, remaining[i]); l < bestLat {
				best, bestLat = i, l
			}
		}
		chain = append(chain, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return chain
}

// WeightedEdgeCut sums the zone-to-zone latency of every grid edge whose
// endpoints land on different hosts — the latency-weighted analogue of
// EdgeCut, and the objective CommAware minimizes. zoneOf maps a host to
// its zone.
func WeightedEdgeCut(assignment []loid.LOID, rows, cols int, zoneOf func(loid.LOID) string, lat netobj.Latencies) float64 {
	if len(assignment) != rows*cols {
		panic("scheduler: assignment length mismatch")
	}
	cost := 0.0
	edge := func(a, b loid.LOID) float64 {
		if a == b {
			return 0
		}
		return lat.MS(zoneOf(a), zoneOf(b))
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if c+1 < cols {
				cost += edge(assignment[i], assignment[i+1])
			}
			if r+1 < rows {
				cost += edge(assignment[i], assignment[i+cols])
			}
		}
	}
	return cost
}
