package proto

import (
	"errors"
	"runtime"
	"testing"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/sched"
	"legion/internal/wire"
)

// TestHostileCountsReserveLinearly feeds each slab-carving decoder a
// frame whose counts claim far more than its bytes hold: many lists, the
// first of them full and plausible, the rest missing. Each must fail
// with the truncation error, having allocated less than a small multiple
// of the frame. A slab sized as "lists left × the first list's length"
// with no cap by the bytes left would reserve quadratically here.
func TestHostileCountsReserveLinearly(t *testing.T) {
	repeat := func(b []byte, n int, unit ...byte) []byte {
		for i := 0; i < n; i++ {
			b = append(b, unit...)
		}
		return b
	}
	emptyLOID := []byte{0, 0, 0} // two empty names and serial 0

	// 200 records; the first claims 990 pairs (an empty name and an
	// invalid value, two bytes each) and has them; the second is missing.
	query := wire.AppendUvarint(nil, 200)
	query = append(query, emptyLOID...)
	query = wire.AppendUvarint(query, 990)
	query = repeat(query, 990, 0, 0)
	query = append(query, 0) // zero UpdatedAt

	// 300 masters; the first claims 200 mappings (three empty LOIDs each)
	// and has them, with no variants and no k-of-n; the second claims
	// 200 mappings and has none.
	schedule := wire.AppendUvarint(nil, 9001)
	schedule = wire.AppendUvarint(schedule, 300)
	schedule = wire.AppendUvarint(schedule, 200)
	schedule = repeat(schedule, 3*200, emptyLOID...)
	schedule = append(schedule, 0, 0)
	schedule = wire.AppendUvarint(schedule, 200)

	// 1,000 instance lists; the first claims 600 LOIDs and has them; the
	// second claims 600 and has none.
	enact := wire.AppendUvarint(nil, 1000)
	enact = wire.AppendUvarint(enact, 600)
	enact = repeat(enact, 600, emptyLOID...)
	enact = wire.AppendUvarint(enact, 600)

	for _, c := range []struct {
		name    string
		payload []byte
		decode  func(r *wire.Reader)
	}{
		{"QueryReply", query, func(r *wire.Reader) { var m QueryReply; m.DecodeWire(r) }},
		{"MakeReservationsArgs", schedule, func(r *wire.Reader) { var m MakeReservationsArgs; m.DecodeWire(r) }},
		{"FeedbackReply", schedule, func(r *wire.Reader) { var m FeedbackReply; m.DecodeWire(r) }},
		{"EnactReply", enact, func(r *wire.Reader) { var m EnactReply; m.DecodeWire(r) }},
	} {
		var before, after runtime.MemStats
		r := wire.NewReader(c.payload)
		runtime.ReadMemStats(&before)
		c.decode(&r)
		runtime.ReadMemStats(&after)
		if !errors.Is(r.Err, wire.ErrTruncated) {
			t.Errorf("%s: decode error %v, want %v", c.name, r.Err, wire.ErrTruncated)
		}
		const multiple = 64
		if grew := after.TotalAlloc - before.TotalAlloc; grew > multiple*uint64(len(c.payload)) {
			t.Errorf("%s: a %d-byte frame allocated %d bytes, more than %d times its length",
				c.name, len(c.payload), grew, multiple)
		}
	}
}

// TestCarvedListsDoNotAlias appends to lists a fresh decode carved from
// one slab. Each carved list is clipped, so the append must reallocate,
// and the list carved after it must not change.
func TestCarvedListsDoNotAlias(t *testing.T) {
	decode := func(v any, out interface{ DecodeWire(*wire.Reader) }) {
		t.Helper()
		b, ok := v.(interface{ AppendWire([]byte) []byte })
		if !ok {
			t.Fatalf("%T has no AppendWire", v)
		}
		r := wire.NewReader(b.AppendWire(nil))
		out.DecodeWire(&r)
		if r.Err != nil || len(r.B) != 0 {
			t.Fatalf("%T: decode: %v, %d bytes left", v, r.Err, len(r.B))
		}
	}
	stray := sched.Mapping{Host: loid.LOID{Domain: "stray", Class: "Host", Instance: 99}}

	rep := fixtureQueryReply(2)
	var gotRep QueryReply
	decode(rep, &gotRep)
	_ = append(gotRep.Records[0].Attrs, attr.Pair{Name: "stray", Value: attr.Int(1)})
	if !wireEqual(gotRep.Records[1], rep.Records[1]) {
		t.Errorf("record 1 changed after an append to record 0's Attrs: %v", gotRep.Records[1].Attrs)
	}

	req := twoMasterRequest()
	var gotMRA MakeReservationsArgs
	decode(MakeReservationsArgs{Request: req}, &gotMRA)
	_ = append(gotMRA.Request.Masters[0].Mappings, stray)
	if !wireEqual(gotMRA.Request.Masters[1], req.Masters[1]) {
		t.Errorf("master 1 changed after an append to master 0's Mappings: %v", gotMRA.Request.Masters[1].Mappings)
	}

	fb := sched.Feedback{Request: req, Success: true, MasterIndex: 1, Resolved: req.Masters[1].Mappings}
	var gotFB FeedbackReply
	decode(FeedbackReply{Feedback: fb}, &gotFB)
	_ = append(gotFB.Feedback.Request.Masters[1].Mappings, stray)
	if !wireEqual(gotFB.Feedback.Resolved, fb.Resolved) {
		t.Errorf("Resolved changed after an append to the last master's Mappings: %v", gotFB.Feedback.Resolved)
	}
	_ = append(gotFB.Feedback.Resolved, stray)
	if !wireEqual(gotFB.Feedback.Request, req) {
		t.Errorf("the request changed after an append to Resolved")
	}

	host := loid.LOID{Domain: "zone-1", Class: "Host", Instance: 3}
	vault := loid.LOID{Domain: "zone-1", Class: "Vault", Instance: 4}
	enact := EnactReply{Instances: [][]loid.LOID{{host, vault}, {vault, host}}, Success: true}
	var gotEnact EnactReply
	decode(enact, &gotEnact)
	_ = append(gotEnact.Instances[0], loid.LOID{Domain: "stray"})
	if !wireEqual(gotEnact.Instances[1], enact.Instances[1]) {
		t.Errorf("Instances[1] changed after an append to Instances[0]: %v", gotEnact.Instances[1])
	}
}

// twoMasterRequest is fixtureRequestList(4) with a second master of four
// other mappings.
func twoMasterRequest() sched.RequestList {
	rl := fixtureRequestList(4)
	second := sched.Master{}
	for _, m := range rl.Masters[0].Mappings {
		m.Host.Instance += 100
		second.Mappings = append(second.Mappings, m)
	}
	rl.Masters = append(rl.Masters, second)
	return rl
}
