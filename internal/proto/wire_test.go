package proto

import (
	"encoding/hex"
	"math"
	"reflect"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/reservation"
	"legion/internal/sched"
	"legion/internal/wire"
)

// wireEqual compares two decoded message values with gob-compatible
// semantics: time.Time by instant (gob strips monotonic readings and may
// re-home the zone), floats bitwise (NaN round-trips), everything else
// structurally. reflect.DeepEqual can't do this — it compares time's
// internal representation and fails on equal instants in different
// zones.
func wireEqual(a, b any) bool {
	return wireEqualValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

var timeType = reflect.TypeOf(time.Time{})

func wireEqualValue(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == timeType && a.CanInterface() {
		return a.Interface().(time.Time).Equal(b.Interface().(time.Time))
	}
	switch a.Kind() {
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return false
		}
		return a.IsNil() || wireEqualValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !wireEqualValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !wireEqualValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() || !wireEqualValue(iter.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !wireEqualValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// --- fixtures ---

func fixtureToken(id uint64) reservation.Token {
	return reservation.Token{
		ID:       id,
		Host:     loid.LOID{Domain: "zone-1", Class: "Host", Instance: id},
		Vault:    loid.LOID{Domain: "zone-1", Class: "Vault", Instance: id + 1},
		Type:     reservation.Type{Share: true},
		Start:    time.Unix(1700000000, 123456789),
		Duration: 90 * time.Minute,
		Timeout:  30 * time.Second,
		MAC:      []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04},
	}
}

func fixtureOPR() *opr.OPR {
	o := &opr.OPR{
		Object:  loid.LOID{Domain: "zone-2", Class: "Worker", Instance: 7},
		Class:   "Worker",
		Version: 3,
		SavedAt: time.Unix(1700000100, 42),
		Payload: []byte("serialized object state"),
	}
	for i := range o.Digest {
		o.Digest[i] = byte(i)
	}
	return o
}

// fixtureRequestList builds a realistic MakeReservations payload: the
// Figure 5 structure with masters, variants, and k-of-n groups sized
// like a mid-size placement request.
func fixtureRequestList(mappings int) sched.RequestList {
	l := func(class string, i int) loid.LOID {
		return loid.LOID{Domain: "zone-1", Class: class, Instance: uint64(i + 1)}
	}
	var master sched.Master
	for i := 0; i < mappings; i++ {
		master.Mappings = append(master.Mappings, sched.Mapping{
			Class: l("Worker", 0),
			Host:  l("Host", i),
			Vault: l("Vault", i%4),
		})
	}
	for v := 0; v < 4; v++ {
		variant := sched.Variant{Covers: sched.NewBitmapOf(mappings, v, (v+1)%mappings)}
		variant.AddReplacement(v, sched.Mapping{
			Class: l("Worker", 0), Host: l("Host", mappings+v), Vault: l("Vault", v%4),
		})
		master.Variants = append(master.Variants, variant)
	}
	master.KofN = append(master.KofN, sched.KofN{
		Class: l("Worker", 0),
		K:     2,
		Alternatives: []sched.HostVault{
			{Host: l("Host", 50), Vault: l("Vault", 0)},
			{Host: l("Host", 51), Vault: l("Vault", 1)},
			{Host: l("Host", 52), Vault: l("Vault", 2)},
		},
	})
	return sched.RequestList{
		ID:      9001,
		Masters: []sched.Master{master},
		Res: sched.ReservationSpec{
			Share:    true,
			Start:    time.Unix(1700000200, 0),
			Duration: time.Hour,
			Timeout:  20 * time.Second,
			Priority: 3,
			Tenant:   "astro",
			Deadline: 3 * time.Hour,
			Budget:   12.5,
		},
	}
}

// fixtureQueryReply builds a Collection query result of n records with
// the scalar attribute shape the Data Collection Daemon deposits.
func fixtureQueryReply(n int) QueryReply {
	rep := QueryReply{SkippedShards: 1}
	for i := 0; i < n; i++ {
		rep.Records = append(rep.Records, CollectionRecord{
			Member: loid.LOID{Domain: "zone-1", Class: "Host", Instance: uint64(i + 1)},
			Attrs: []attr.Pair{
				{Name: "arch", Value: attr.String("x86_64")},
				{Name: "os", Value: attr.String("linux")},
				{Name: "load", Value: attr.Float(0.25 + float64(i)*0.001)},
				{Name: "mem_mb", Value: attr.Int(int64(4096 + i))},
				{Name: "up", Value: attr.Bool(true)},
			},
			UpdatedAt: time.Unix(1700000300+int64(i), 500),
		})
	}
	return rep
}

// fixtureMessages returns one representative instance of every
// registered message type, exercising optional pointers, maps, nested
// lists, and empty variants.
func fixtureMessages() []any {
	host := loid.LOID{Domain: "zone-1", Class: "Host", Instance: 3}
	vault := loid.LOID{Domain: "zone-1", Class: "Vault", Instance: 4}
	obj := loid.LOID{Domain: "zone-2", Class: "Worker", Instance: 5}
	attrs := []attr.Pair{
		{Name: "arch", Value: attr.String("x86_64")},
		{Name: "tags", Value: attr.Strings("gpu", "fast")},
		{Name: "load", Value: attr.Float(1.5)},
		{Name: "nested", Value: attr.List(attr.Int(1), attr.List(attr.Bool(false)))},
	}
	return []any{
		MakeReservationArgs{Requester: obj, Vault: vault, Type: reservation.Type{Share: true, Reuse: true},
			Start: time.Unix(1700000000, 1), Duration: time.Hour, Timeout: time.Minute, Priority: -2,
			Tenant: "astro"},
		MakeReservationReply{Token: fixtureToken(11), Cost: 0.125},
		MakeReservationReply{Token: fixtureToken(11)}, // free host: zero Cost
		TokenArgs{Token: fixtureToken(12)},
		StartObjectArgs{Token: fixtureToken(13), Class: obj, Instances: []loid.LOID{host, vault}, State: fixtureOPR()},
		StartObjectArgs{Token: fixtureToken(14)}, // nil State, nil Instances
		StartObjectReply{Started: []loid.LOID{obj}},
		ObjectArgs{Object: obj},
		DeactivateReply{OPR: fixtureOPR(), Vault: vault},
		DeactivateReply{Vault: vault},
		CompatibleVaultsReply{Vaults: []loid.LOID{vault}},
		VaultOKArgs{Vault: vault, Zone: "zone-1"},
		BoolReply{OK: true},
		AttributesReply{Attrs: attrs},
		AttributesReply{},
		DefineTriggerArgs{Name: "hot", Guard: "load > 0.9"},
		RegisterOutcallArgs{Trigger: "hot", Monitor: obj},
		NotifyArgs{Source: host, Trigger: "hot", Attrs: attrs, Time: time.Unix(1700000400, 7)},
		StoreOPRArgs{OPR: fixtureOPR()},
		RetrieveOPRArgs{Object: obj},
		RetrieveOPRReply{OPR: fixtureOPR()},
		RetrieveOPRReply{},
		DeleteOPRArgs{Object: obj},
		JoinArgs{Joiner: host, Attrs: attrs, Credential: "secret"},
		LeaveArgs{Leaver: host, Credential: "secret"},
		UpdateArgs{Member: host, Attrs: attrs},
		QueryArgs{Query: `arch == "x86_64" and load < 2`},
		fixtureQueryReply(3),
		QueryReply{},
		CollectionRecord{Member: host, Attrs: attrs, UpdatedAt: time.Unix(1700000500, 0)},
		BatchEntry{Member: host, Attrs: attrs, UpdateOnly: true},
		BatchUpdateArgs{Entries: []BatchEntry{{Member: host, Attrs: attrs}, {Member: vault, UpdateOnly: true}}, Credential: "c"},
		BatchUpdateReply{Applied: 10, Dropped: 2},
		CreateInstanceArgs{Count: 2, Placement: &Placement{Host: host, Vault: vault, Token: fixtureToken(15)}, State: fixtureOPR()},
		CreateInstanceArgs{Count: 1},
		CreateInstanceReply{Instances: []loid.LOID{obj}, Host: host, Vault: vault},
		Implementation{Arch: "x86_64", OS: "linux", MemoryMB: 512},
		ImplementationsReply{Impls: []Implementation{{Arch: "arm64", OS: "linux", MemoryMB: 256}}},
		InstancesReply{Instances: []loid.LOID{obj, host}},
		Placement{Host: host, Vault: vault, Token: fixtureToken(16)},
		MakeReservationsArgs{Request: fixtureRequestList(8), RequesterDomain: "zone-2"},
		FeedbackReply{Feedback: sched.Feedback{
			Request: fixtureRequestList(4), Success: true, MasterIndex: 0,
			Resolved:        fixtureRequestList(4).Masters[0].Mappings,
			VariantsApplied: []int{1, 3},
			Reason:          sched.FailureReason(0), Detail: "",
			Stats: sched.EnactmentStats{ReservationsRequested: 8, ReservationsGranted: 8},
		}},
		FeedbackReply{Feedback: sched.Feedback{
			Request: fixtureRequestList(2), MasterIndex: -1,
			Reason: sched.FailureReason(2), Detail: "no resources",
		}},
		EnactScheduleArgs{RequestID: 9001},
		EnactReply{Instances: [][]loid.LOID{{obj}, nil, {host, vault}}, Success: true, Detail: "ok"},
		CancelReservationsArgs{RequestID: 9001},
		AccountArgs{Tenant: "astro"},
		AccountArgs{},
		AccountDepositArgs{Tenant: "bio", Amount: 5_000_000},
		AccountDepositArgs{Tenant: "cfd", Amount: -250},
		AccountReply{Tenant: "astro", Budget: 10_000_000, Spent: 750_000,
			Refunded: 250_000, Remaining: 9_500_000},
		AccountReply{},
		Ack{},
		ServicesReply{
			Collection: loid.LOID{Domain: "z", Class: "Collection", Instance: 1},
			Enactor:    loid.LOID{Domain: "z", Class: "Enactor", Instance: 1},
			Monitor:    loid.LOID{Domain: "z", Class: "Monitor", Instance: 1},
			Classes:    map[string]loid.LOID{"Worker": obj, "Probe": host},
			Hosts:      []loid.LOID{host},
			Vaults:     []loid.LOID{vault},
		},
		ServicesReply{},
	}
}

// TestWireRoundTripMatchesGob encodes every fixture with the binary
// codec and checks the decode equals the gob round trip of the same
// value — the compatibility contract the codec migration rests on.
func TestWireRoundTripMatchesGob(t *testing.T) {
	for _, v := range fixtureMessages() {
		b, err := orb.EncodePayloadBytes(v)
		if err != nil {
			t.Fatalf("%T: encode: %v", v, err)
		}
		got, err := orb.DecodePayloadBytes(b)
		if err != nil {
			t.Fatalf("%T: decode: %v", v, err)
		}
		want, err := gobRoundTrip(v)
		if err != nil {
			t.Fatalf("%T: gob: %v", v, err)
		}
		if !wireEqual(got, want) {
			t.Errorf("%T: binary round trip diverges from gob\nbinary: %#v\ngob:    %#v", v, got, want)
		}
	}
}

// TestWirePointerEncodesAsValue verifies *T arguments encode under T's
// ID and decode as T values, matching gob's interface semantics (the
// scheduler asserts res.(proto.QueryReply) on values).
func TestWirePointerEncodesAsValue(t *testing.T) {
	rep := fixtureQueryReply(2)
	bv, err := orb.EncodePayloadBytes(rep)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := orb.EncodePayloadBytes(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(bv) != string(bp) {
		t.Fatal("pointer and value encodings differ")
	}
	got, err := orb.DecodePayloadBytes(bp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(QueryReply); !ok {
		t.Fatalf("decoded %T, want QueryReply value", got)
	}
}

// TestCodecAllocBudget holds the hot-path types to the zero-allocation
// contract: encoding into a warmed buffer and decoding into a reused
// struct must cost at most one allocation per op (interned symbols,
// reused slice capacities, pooled buffers).
func TestCodecAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	mra := MakeReservationsArgs{Request: fixtureRequestList(32), RequesterDomain: "zone-2"}
	rep := fixtureQueryReply(100)

	buf := make([]byte, 0, 1<<20)
	check := func(name string, fn func()) {
		t.Helper()
		fn() // warm: grow reuse capacities, intern symbols
		if allocs := testing.AllocsPerRun(50, fn); allocs > 1 {
			t.Errorf("%s: %.1f allocs/op, budget 1", name, allocs)
		}
	}

	var r wire.Reader // reused, as the per-connection read loops do

	check("encode MakeReservationsArgs", func() { buf = mra.AppendWire(buf[:0]) })
	encMRA := mra.AppendWire(nil)
	var mraOut MakeReservationsArgs
	check("decode MakeReservationsArgs", func() {
		r.Reset(encMRA)
		mraOut.DecodeWire(&r)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	})

	check("encode QueryReply", func() { buf = rep.AppendWire(buf[:0]) })
	encRep := rep.AppendWire(nil)
	var repOut QueryReply
	check("decode QueryReply", func() {
		r.Reset(encRep)
		repOut.DecodeWire(&r)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	})
}

// TestWireTruncationSafety truncates every fixture's encoding at every
// length and expects an error or a clean value — never a panic.
func TestWireTruncationSafety(t *testing.T) {
	for _, v := range fixtureMessages() {
		b, err := orb.EncodePayloadBytes(v)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := orb.DecodePayloadBytes(b[:cut]); err == nil {
				// A clean decode of a strict prefix is impossible: the
				// payload would have trailing bytes or a truncation error.
				t.Fatalf("%T: truncation at %d/%d decoded cleanly", v, cut, len(b))
			}
		}
	}
}

// TestMakeReservationsArgsGoldenBytes pins one payload byte for byte
// (tag 49 + the Figure 5 structure: master, variant bitmap, k-of-n,
// reservation spec). The bytes were produced by the codec as it stood
// when gob still sat beside it; a diff here is a wire-format change.
func TestMakeReservationsArgsGoldenBytes(t *testing.T) {
	b, err := orb.EncodePayloadBytes(MakeReservationsArgs{
		Request: fixtureRequestList(4), RequesterDomain: "zone-2"})
	if err != nil {
		t.Fatal(err)
	}
	const want = "31a9460104067a6f6e652d3106576f726b657201067a6f6e652d3104486f737401067a6f6e652d31055661756c740106" +
		"7a6f6e652d3106576f726b657201067a6f6e652d3104486f737402067a6f6e652d31055661756c7402067a6f6e652d31" +
		"06576f726b657201067a6f6e652d3104486f737403067a6f6e652d31055661756c7403067a6f6e652d3106576f726b65" +
		"7201067a6f6e652d3104486f737404067a6f6e652d31055661756c7404040100067a6f6e652d3106576f726b65720106" +
		"7a6f6e652d3104486f737405067a6f6e652d31055661756c740101030102067a6f6e652d3106576f726b657201067a6f" +
		"6e652d3104486f737406067a6f6e652d31055661756c740201060104067a6f6e652d3106576f726b657201067a6f6e65" +
		"2d3104486f737407067a6f6e652d31055661756c7403010c0106067a6f6e652d3106576f726b657201067a6f6e652d31" +
		"04486f737408067a6f6e652d31055661756c7404010901067a6f6e652d3106576f726b6572010403067a6f6e652d3104" +
		"486f737433067a6f6e652d31055661756c7401067a6f6e652d3104486f737434067a6f6e652d31055661756c7402067a" +
		"6f6e652d3104486f737435067a6f6e652d31055661756c740301000190c79fd50c008080c58bc6d10180a0be81950106" +
		"05617374726f8080cfa2d2f4040000000000002940067a6f6e652d32"
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("payload bytes moved:\n got %s\nwant %s", got, want)
	}
}
