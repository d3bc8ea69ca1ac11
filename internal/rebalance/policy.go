package rebalance

import (
	"cmp"
	"context"
	"slices"

	"legion/internal/classobj"
	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/proto"
	"legion/internal/scheduler"
)

// LeastLoaded is the default rebalancing policy: when a host's overload
// trigger fires, shed up to MaxShedPerEvent of its managed instances to
// the least-loaded compatible hosts.
//
// Destination selection goes through the Collection (the same directory
// the Scheduler uses), filtering records that are flagged down or
// advertise no compatible vault, and ranks the survivors:
//
//  1. hosts that can reach the instance's current vault (the migration
//     stays single-vault — no OPR copy at all);
//  2. hosts in the same zone as the instance's current vault (a
//     cross-vault move that stays inside the zone);
//  3. everything else;
//
// ties broken by ascending advertised load. If the query fails or
// matches no record (e.g. nothing pushes load updates), the policy falls
// back to direct host introspection via the metasystem; records that are
// all flagged down mean no move.
type LeastLoaded struct {
	// MaxShedPerEvent bounds how many instances one trigger event may
	// move off the source host (default 1).
	MaxShedPerEvent int
	// Query selects candidate destination records (default
	// "defined($host_load)").
	Query string
}

// NewLeastLoaded returns the default policy.
func NewLeastLoaded() *LeastLoaded {
	return &LeastLoaded{MaxShedPerEvent: 1, Query: "defined($host_load)"}
}

// Plan implements Policy.
func (p *LeastLoaded) Plan(ctx context.Context, ev proto.NotifyArgs, ms *core.Metasystem, classes []*classobj.Class) ([]Move, error) {
	victims := victimsOn(ev.Source, classes, max(p.MaxShedPerEvent, 1))
	if len(victims) == 0 {
		return nil, nil
	}
	return spread(ms, victims, candidateHosts(ctx, ev.Source, ms, p.Query), currentLoad), nil
}

func currentLoad(hi *scheduler.HostInfo) float64 { return hi.Load }

// victim is one shed candidate: a managed instance placed on the
// overloaded source.
type victim struct {
	class *classobj.Class
	inst  loid.LOID
	vault loid.LOID
}

// victimsOn lists up to shed managed instances the class records place
// on source. Shared by every rebalancing policy.
func victimsOn(source loid.LOID, classes []*classobj.Class, shed int) []victim {
	var victims []victim
	for _, c := range classes {
		for _, inst := range c.Instances() {
			h, v, err := c.WhereIs(inst)
			if err != nil || h != source {
				continue
			}
			victims = append(victims, victim{class: c, inst: inst, vault: v})
			if len(victims) >= shed {
				return victims
			}
		}
	}
	return victims
}

// candidateHosts returns usable destination host records for a shed off
// source, Collection-first with a metasystem-introspection fallback.
// Shared by every rebalancing policy; the slice is the caller's own.
func candidateHosts(ctx context.Context, source loid.LOID, ms *core.Metasystem, query string) []scheduler.HostInfo {
	if query == "" {
		query = "defined($host_load)"
	}
	infos, _, err := scheduler.QueryHostsPartial(ctx, ms.Env(), query)
	var out []scheduler.HostInfo
	if err == nil && len(infos) > 0 {
		// The Collection answered: its records decide, and a host it
		// flags down is no destination even when no other is left.
		for _, hi := range infos {
			if hi.LOID == source || hi.Down || len(hi.Vaults) == 0 {
				continue
			}
			out = append(out, hi)
		}
	} else {
		// No Collection answer (no daemon or Host pushes into it, or
		// the query failed): fall back to live host state.
		for _, h := range ms.Hosts() {
			if h.LOID() == source || len(h.CompatibleVaults()) == 0 {
				continue
			}
			out = append(out, scheduler.HostInfo{
				LOID:   h.LOID(),
				Load:   h.Load(),
				Zone:   h.Zone(),
				Price:  h.Price(),
				Vaults: h.CompatibleVaults(),
			})
		}
	}
	return out
}

// spread is the tail every policy ends in: rank the destinations for
// each victim and send victim i to its i-th best (so multiple sheds
// spread out instead of piling onto the single coolest host), keeping
// the victim's vault whenever the destination reaches it — no OPR copy
// needed. No candidates, no moves.
func spread(ms *core.Metasystem, victims []victim, cands []scheduler.HostInfo, key func(*scheduler.HostInfo) float64) []Move {
	if len(cands) == 0 {
		return nil
	}
	var moves []Move
	for i, vic := range victims {
		zone := ""
		if v := ms.VaultByLOID(vic.vault); v != nil {
			zone = v.Zone()
		}
		ranked := rank(cands, vic.vault, zone, key)
		dest := ranked[i%len(ranked)]
		toVault := dest.Vaults[0]
		if slices.Contains(dest.Vaults, vic.vault) {
			toVault = vic.vault
		}
		moves = append(moves, Move{Class: vic.class, Instance: vic.inst, ToHost: dest.LOID, ToVault: toVault})
	}
	return moves
}

// rank orders destinations for one victim, in tiers: hosts that reach
// its current vault, then hosts in that vault's zone, then the rest.
// Within a tier the coolest key (current load for reactive policies,
// forecast for predictive ones) goes first; full ties keep the
// candidates' incoming order.
func rank(cands []scheduler.HostInfo, curVault loid.LOID, vaultZone string, key func(*scheduler.HostInfo) float64) []scheduler.HostInfo {
	tier := func(hi *scheduler.HostInfo) int {
		switch {
		case slices.Contains(hi.Vaults, curVault):
			return 0
		case vaultZone != "" && hi.Zone == vaultZone:
			return 1
		}
		return 2
	}
	out := slices.Clone(cands)
	slices.SortStableFunc(out, func(a, b scheduler.HostInfo) int {
		return cmp.Or(cmp.Compare(tier(&a), tier(&b)), cmp.Compare(key(&a), key(&b)))
	})
	return out
}
