package netobj

import (
	"context"
	"testing"

	"legion/internal/attr"
	"legion/internal/collection"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
)

func TestLinkBasics(t *testing.T) {
	rt := orb.NewRuntime("uva")
	l := NewLink(rt, "zb", "za", 40, 100) // endpoints canonicalized
	m := attr.FromPairs(l.Attributes())
	if m[attrZoneA].Str() != "za" || m[attrZoneB].Str() != "zb" {
		t.Errorf("zones: %v", l.Attributes())
	}
	if m[attrLatencyMS].FloatVal() != 40 || m[attrBandwidth].FloatVal() != 100 {
		t.Errorf("initial: %v", l.Attributes())
	}
	l.Observe(55, 80)
	m = attr.FromPairs(l.Attributes())
	if m[attrLatencyMS].FloatVal() != 55 || m[attrBandwidth].FloatVal() != 80 || m[attrZoneA].Str() != "za" {
		t.Errorf("after observe: %v", l.Attributes())
	}
	// Reachable as a Legion object.
	res, err := rt.Call(context.Background(), l.LOID(), proto.MethodGetAttributes, nil)
	if err != nil || len(res.(proto.AttributesReply).Attrs) == 0 {
		t.Errorf("get_attributes: %v %v", res, err)
	}
}

func TestLinkSameZonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewLink(orb.NewRuntime("uva"), "z", "z", 1, 1)
}

// joinLinks joins links to a new Collection and returns it.
func joinLinks(t *testing.T, rt *orb.Runtime, links ...*Link) *collection.Collection {
	t.Helper()
	coll := collection.New(rt, nil)
	for _, l := range links {
		if err := coll.Join(l.LOID(), l.Attributes(), ""); err != nil {
			t.Fatal(err)
		}
	}
	return coll
}

// TestTopologyLatency checks the latency lookups a scheduler makes on
// the link records of a Collection.
func TestTopologyLatency(t *testing.T) {
	rt := orb.NewRuntime("uva")
	coll := joinLinks(t, rt, NewLink(rt, "za", "zb", 10, 1000), NewLink(rt, "zb", "zc", 50, 100))
	recs, err := coll.Query(Query)
	if err != nil {
		t.Fatal(err)
	}
	lat := LatenciesOf(recs)
	if l := lat.MS("za", "za"); l != 0.1 {
		t.Errorf("intra-zone: %v", l)
	}
	if l := lat.MS("za", "zb"); l != 10 {
		t.Errorf("za-zb: %v", l)
	}
	if l := lat.MS("zb", "za"); l != 10 {
		t.Errorf("symmetric: %v", l)
	}
	if l := lat.MS("zc", "zb"); l != 50 {
		t.Errorf("swapped order: %v", l)
	}
	if l := lat.MS("za", "zc"); l != 200 {
		t.Errorf("missing pair default: %v", l)
	}
	if len(lat) != 2 {
		t.Errorf("links: %d", len(lat))
	}
}

// TestJoinCollection checks that communication resources are queryable
// like any other resource once their links join a Collection.
func TestJoinCollection(t *testing.T) {
	rt := orb.NewRuntime("uva")
	coll := joinLinks(t, rt, NewLink(rt, "za", "zb", 10, 1000), NewLink(rt, "zb", "zc", 50, 100))
	recs, err := coll.Query(Query + ` and $` + attrLatencyMS + ` < 20`)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("fast links: %+v", recs)
	}
	m := attr.FromPairs(recs[0].Attrs)
	if m[attrZoneA].Str() != "za" || m[attrZoneB].Str() != "zb" {
		t.Errorf("record: %v", recs[0].Attrs)
	}
}

// TestLatenciesOf reads link records both as a Collection returns them
// and as a peer may send them: unsorted, partial or mistyped.
func TestLatenciesOf(t *testing.T) {
	rt := orb.NewRuntime("uva")
	coll := joinLinks(t, rt, NewLink(rt, "za", "zb", 10, 1000), NewLink(rt, "zc", "zb", 50, 100))
	// A host record is not a link record.
	if err := coll.Join(rt.Mint("Host"), []attr.Pair{{Name: "host_zone", Value: attr.String("za")}}, ""); err != nil {
		t.Fatal(err)
	}
	recs, err := coll.Query(Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("link records: %+v", recs)
	}
	rec := func(pairs ...attr.Pair) proto.CollectionRecord {
		return proto.CollectionRecord{Member: loid.LOID{Domain: "peer", Class: "NetworkLink"}, Attrs: pairs}
	}
	recs = append(recs,
		// Unsorted, zones reversed.
		rec(attr.Pair{Name: attrLatencyMS, Value: attr.Int(7)},
			attr.Pair{Name: attrZoneB, Value: attr.String("zd")},
			attr.Pair{Name: attrZoneA, Value: attr.String("zz")}),
		// Missing a zone: skipped.
		rec(attr.Pair{Name: attrLatencyMS, Value: attr.Float(1)},
			attr.Pair{Name: attrZoneA, Value: attr.String("za")}),
		// Non-numeric latency: skipped.
		rec(attr.Pair{Name: attrLatencyMS, Value: attr.String("fast")},
			attr.Pair{Name: attrZoneA, Value: attr.String("za")},
			attr.Pair{Name: attrZoneB, Value: attr.String("zc")}),
		// Flagged down by the Data Collection Daemon: skipped.
		rec(attr.Pair{Name: attrZoneA, Value: attr.String("zd")},
			attr.Pair{Name: attrZoneB, Value: attr.String("ze")},
			attr.Pair{Name: attrLatencyMS, Value: attr.Float(1)},
			attr.Pair{Name: attrAlive, Value: attr.Bool(false)}),
	)
	lat := LatenciesOf(recs)
	if len(lat) != 3 {
		t.Errorf("latencies: %v", lat)
	}
	for _, c := range []struct {
		a, b string
		want float64
	}{
		{"za", "za", 0.1}, // within a zone
		{"za", "zb", 10},
		{"zb", "za", 10},  // symmetric
		{"zb", "zc", 50},  // a link joined with its zones out of order
		{"zz", "zd", 7},   // the unsorted record
		{"za", "zc", 200}, // the non-numeric record's pair: no link
		{"zd", "ze", 200}, // the down link's pair: no link
		{"za", "zq", 200}, // no record at all
	} {
		if got := lat.MS(c.a, c.b); got != c.want {
			t.Errorf("MS(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
