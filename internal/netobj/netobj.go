// Package netobj implements Network Objects, the paper's §6 future work:
// "We are developing Network Objects to manage communications resources."
//
// A Link is a Legion object representing one inter-zone communication
// resource (a WAN path between sites, a campus backbone segment). Like
// Hosts, Links carry an attribute database — latency, bandwidth, the
// zones they join — and can deposit it into Collections, so Schedulers
// can reason about communication exactly the way they reason about
// computation. A Topology aggregates Links and answers zone-to-zone
// latency queries for communication-aware placement (see
// scheduler.CommAware).
package netobj

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
)

// Link is a Legion Network Object for one zone-to-zone link. It is safe
// for concurrent use.
type Link struct {
	*orb.ServiceObject
	zoneA, zoneB string

	mu        sync.Mutex
	latencyMS float64
	bwMbps    float64
	attrs     *attr.Set
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
		zoneA:         zoneA,
		zoneB:         zoneB,
		latencyMS:     latencyMS,
		bwMbps:        bwMbps,
	}
	l.attrs = attr.NewSet(
		attr.Pair{Name: "net_zone_a", Value: attr.String(zoneA)},
		attr.Pair{Name: "net_zone_b", Value: attr.String(zoneB)},
		attr.Pair{Name: "net_latency_ms", Value: attr.Float(latencyMS)},
		attr.Pair{Name: "net_bandwidth_mbps", Value: attr.Float(bwMbps)},
	)
	l.Handle(proto.MethodGetAttributes, func(_ context.Context, _ any) (any, error) {
		return proto.AttributesReply{Attrs: l.Attributes()}, nil
	})
	rt.Register(l)
	return l
}

// Zones returns the link's endpoints in canonical order.
func (l *Link) Zones() (string, string) { return l.zoneA, l.zoneB }

// Latency returns the current one-way latency in milliseconds.
func (l *Link) Latency() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.latencyMS
}

// Bandwidth returns the current bandwidth in Mbit/s.
func (l *Link) Bandwidth() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bwMbps
}

// Observe updates the link's measured characteristics (driven by the
// simulation or a measurement daemon) and repopulates its attributes.
func (l *Link) Observe(latencyMS, bwMbps float64) {
	l.mu.Lock()
	l.latencyMS = latencyMS
	l.bwMbps = bwMbps
	l.mu.Unlock()
	l.attrs.Merge([]attr.Pair{
		{Name: "net_latency_ms", Value: attr.Float(latencyMS)},
		{Name: "net_bandwidth_mbps", Value: attr.Float(bwMbps)},
	})
}

// Attributes returns a copy of the link's attributes, the caller's to
// keep and write.
func (l *Link) Attributes() []attr.Pair { return slices.Clone(l.attrs.Snapshot()) }

// Topology aggregates Links and answers zone-distance queries. Missing
// pairs are treated as unreachable-but-expensive rather than errors, so
// placement degrades instead of failing. Safe for concurrent use.
type Topology struct {
	mu    sync.RWMutex
	links map[[2]string]*Link
	// IntraZoneMS is the latency charged within a zone (LAN); default 0.1.
	IntraZoneMS float64
	// DefaultMS is charged for zone pairs with no Link; default 200.
	DefaultMS float64
}

// NewTopology builds a Topology over the given links.
func NewTopology(links ...*Link) *Topology {
	t := &Topology{
		links:       make(map[[2]string]*Link),
		IntraZoneMS: 0.1,
		DefaultMS:   200,
	}
	for _, l := range links {
		t.Add(l)
	}
	return t
}

// Add registers a link (replacing any previous link for the pair).
func (t *Topology) Add(l *Link) {
	a, b := l.Zones()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.links[[2]string{a, b}] = l
}

// Link returns the link between two zones, if any.
func (t *Topology) Link(zoneA, zoneB string) (*Link, bool) {
	if zoneB < zoneA {
		zoneA, zoneB = zoneB, zoneA
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	l, ok := t.links[[2]string{zoneA, zoneB}]
	return l, ok
}

// LatencyMS returns the current zone-to-zone latency in milliseconds.
func (t *Topology) LatencyMS(zoneA, zoneB string) float64 {
	if zoneA == zoneB {
		return t.IntraZoneMS
	}
	if l, ok := t.Link(zoneA, zoneB); ok {
		return l.Latency()
	}
	return t.DefaultMS
}

// Links returns all registered links.
func (t *Topology) Links() []*Link {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Link, 0, len(t.links))
	for _, l := range t.links {
		out = append(out, l)
	}
	return out
}

// JoinCollection deposits every link's description into a Collection, so
// communication resources are discoverable alongside Hosts and Vaults.
func (t *Topology) JoinCollection(ctx context.Context, rt *orb.Runtime, coll loid.LOID, credential string) error {
	for _, l := range t.Links() {
		if _, err := rt.Call(ctx, coll, proto.MethodJoinCollection, proto.JoinArgs{
			Joiner: l.LOID(), Attrs: l.Attributes(), Credential: credential,
		}); err != nil {
			return fmt.Errorf("netobj: joining %v: %w", l.LOID(), err)
		}
	}
	return nil
}
