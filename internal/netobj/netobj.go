// Package netobj implements Network Objects, the paper's §6 future work:
// "We are developing Network Objects to manage communications resources."
//
// A Link is a Legion object representing one inter-zone communication
// resource (a WAN path between sites, a campus backbone segment). Like
// Hosts, Links carry an attribute database — latency, bandwidth, the
// zones they join — and deposit it into Collections, so Schedulers
// can reason about communication exactly the way they reason about
// computation. A consumer queries the Collection for link records
// (Query) and reads zone-to-zone latency from them (LatenciesOf); see
// scheduler.CommAware.
package netobj

import (
	"context"
	"slices"

	"legion/internal/attr"
	"legion/internal/orb"
	"legion/internal/proto"
)

// Link record attributes. Only this package writes or reads them.
const (
	attrZoneA     = "net_zone_a"
	attrZoneB     = "net_zone_b"
	attrLatencyMS = "net_latency_ms"
	attrBandwidth = "net_bandwidth_mbps"
)

// attrAlive is the liveness flag the Data Collection Daemon deposits
// on every resource it watches (daemon.AttrAlive): false once the
// resource stops answering.
const attrAlive = "host_alive"

// Query is the Collection query that selects link records.
const Query = `defined($` + attrLatencyMS + `)`

const (
	// intraZoneMS is the latency charged within a zone (LAN).
	intraZoneMS = 0.1
	// defaultMS is charged for zone pairs with no link record, so
	// placement degrades instead of failing.
	defaultMS = 200
)

// Link is a Legion Network Object for one zone-to-zone link: its
// attribute database and nothing else. It is safe for concurrent use.
type Link struct {
	*orb.ServiceObject
	attrs *attr.Set
}

// NewLink creates a Link between two zones, registers it with rt, and
// initializes its attribute database.
func NewLink(rt *orb.Runtime, zoneA, zoneB string, latencyMS, bwMbps float64) *Link {
	if zoneA == zoneB {
		panic("netobj: link endpoints must differ")
	}
	if zoneB < zoneA {
		zoneA, zoneB = zoneB, zoneA // canonical order
	}
	l := &Link{
		ServiceObject: orb.NewServiceObject(rt.Mint("NetworkLink")),
		attrs: attr.NewSet(
			attr.Pair{Name: attrZoneA, Value: attr.String(zoneA)},
			attr.Pair{Name: attrZoneB, Value: attr.String(zoneB)},
			attr.Pair{Name: attrLatencyMS, Value: attr.Float(latencyMS)},
			attr.Pair{Name: attrBandwidth, Value: attr.Float(bwMbps)},
		),
	}
	l.Handle(proto.MethodGetAttributes, func(_ context.Context, _ any) (any, error) {
		return proto.AttributesReply{Attrs: l.Attributes()}, nil
	})
	rt.Register(l)
	return l
}

// Observe updates the link's measured characteristics (driven by the
// simulation or a measurement daemon). A Collection sees them at the
// link's next deposit.
func (l *Link) Observe(latencyMS, bwMbps float64) {
	l.attrs.Merge([]attr.Pair{
		{Name: attrLatencyMS, Value: attr.Float(latencyMS)},
		{Name: attrBandwidth, Value: attr.Float(bwMbps)},
	})
}

// Attributes returns a copy of the link's attributes, the caller's to
// keep and write.
func (l *Link) Attributes() []attr.Pair { return slices.Clone(l.attrs.Snapshot()) }

// Latencies maps a canonical zone pair (lower zone first) to its link
// latency in milliseconds.
type Latencies map[[2]string]float64

// LatenciesOf reads link records as a Collection query returns them. A
// record's pairs need not be sorted; a record missing a zone or carrying
// a non-numeric latency is skipped, and so is a link the Data Collection
// Daemon has flagged down (host_alive not true, the rule by which a
// scheduler takes a host for down), so its zone pair costs what a pair
// with no link does.
func LatenciesOf(recs []proto.CollectionRecord) Latencies {
	lat := make(Latencies, len(recs))
	for _, rec := range recs {
		var a, b string
		ms, ok, down := 0.0, false, false
		for _, p := range rec.Attrs {
			switch p.Name {
			case attrZoneA:
				a = p.Value.Str()
			case attrZoneB:
				b = p.Value.Str()
			case attrLatencyMS:
				ms, ok = p.Value.AsFloat()
			case attrAlive:
				down = !p.Value.BoolVal()
			}
		}
		if a == "" || b == "" || !ok || down {
			continue
		}
		if b < a {
			a, b = b, a
		}
		lat[[2]string{a, b}] = ms
	}
	return lat
}

// MS returns the latency between two zones in milliseconds: 0.1 within
// a zone, the link's latency across one, and 200 for a pair no link
// joins.
func (l Latencies) MS(zoneA, zoneB string) float64 {
	if zoneA == zoneB {
		return intraZoneMS
	}
	if zoneB < zoneA {
		zoneA, zoneB = zoneB, zoneA
	}
	if ms, ok := l[[2]string{zoneA, zoneB}]; ok {
		return ms
	}
	return defaultMS
}
