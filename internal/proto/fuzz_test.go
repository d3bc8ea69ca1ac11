package proto

import (
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/reservation"
	"legion/internal/sched"
)

// gen deterministically derives message fixtures from fuzz input bytes.
// Exhausted input yields zeros, so every byte string maps to a valid
// message and the fuzzer explores structure by mutating bytes.
type gen struct {
	data []byte
	pos  int
}

func (g *gen) byte() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

func (g *gen) n(max int) int { return int(g.byte()) % max }

func (g *gen) uint64() uint64 {
	v := uint64(g.byte())
	v = v<<8 | uint64(g.byte())
	if g.byte()&1 == 1 { // occasionally exercise wide varints
		v = v<<31 | uint64(g.byte())<<7
	}
	return v
}

func (g *gen) int64() int64 { return int64(g.uint64()) - 1<<32 }

func (g *gen) bool() bool { return g.byte()&1 == 1 }

var genSyms = []string{"", "zone-1", "zone-2", "Worker", "Host", "Vault", "arch", "x86_64", "linux", "load", "hot", "a b\x00c\xff"}

func (g *gen) sym() string { return genSyms[g.n(len(genSyms))] }

func (g *gen) str() string {
	switch g.n(4) {
	case 0:
		return ""
	case 1:
		return "free-form text with spaces"
	case 2:
		return string([]byte{0, 255, 128, 7})
	default:
		return g.sym()
	}
}

func (g *gen) time() time.Time {
	if g.bool() {
		return time.Time{}
	}
	return time.Unix(int64(g.uint64()), int64(g.n(1_000_000_000)))
}

func (g *gen) dur() time.Duration { return time.Duration(g.int64()) }

func (g *gen) loid() loid.LOID {
	return loid.LOID{Domain: g.sym(), Class: g.sym(), Instance: g.uint64()}
}

func (g *gen) loids() []loid.LOID {
	n := g.n(4)
	var out []loid.LOID
	for i := 0; i < n; i++ {
		out = append(out, g.loid())
	}
	return out
}

func (g *gen) bytes() []byte {
	n := g.n(8)
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = g.byte()
	}
	return out
}

func (g *gen) value(depth int) attr.Value {
	switch k := g.n(6); {
	case k == 0:
		return attr.String(g.str())
	case k == 1:
		return attr.Int(g.int64())
	case k == 2:
		return attr.Float(float64(g.int64()) / 3.0)
	case k == 3:
		return attr.Bool(g.bool())
	case k == 4 && depth < 2:
		var elems []attr.Value
		for i, n := 0, g.n(3); i < n; i++ {
			elems = append(elems, g.value(depth+1))
		}
		return attr.List(elems...)
	default:
		return attr.String(g.sym())
	}
}

func (g *gen) attrs() []attr.Pair {
	n := g.n(5)
	var out []attr.Pair
	for i := 0; i < n; i++ {
		out = append(out, attr.Pair{Name: g.sym(), Value: g.value(0)})
	}
	return out
}

func (g *gen) token() reservation.Token {
	return reservation.Token{
		ID:    g.uint64(),
		Host:  g.loid(),
		Vault: g.loid(),
		Type: reservation.Type{
			Share: g.bool(), Reuse: g.bool(),
		},
		Start:    g.time(),
		Duration: g.dur(),
		Timeout:  g.dur(),
		MAC:      g.bytes(),
	}
}

func (g *gen) opr() *opr.OPR {
	if g.bool() {
		return nil
	}
	o := &opr.OPR{
		Object:  g.loid(),
		Class:   g.sym(),
		Version: g.uint64(),
		SavedAt: g.time(),
		Payload: g.bytes(),
	}
	for i := range o.Digest {
		o.Digest[i] = g.byte()
	}
	return o
}

func (g *gen) mapping() sched.Mapping {
	return sched.Mapping{Class: g.loid(), Host: g.loid(), Vault: g.loid()}
}

func (g *gen) requestList() sched.RequestList {
	var masters []sched.Master
	for i, n := 0, g.n(3); i < n; i++ {
		var m sched.Master
		nm := g.n(4)
		for j := 0; j < nm; j++ {
			m.Mappings = append(m.Mappings, g.mapping())
		}
		for j, nv := 0, g.n(3); j < nv; j++ {
			v := sched.Variant{Covers: sched.NewBitmap(nm)}
			if nm > 0 {
				v.Covers.Set(g.n(nm))
				v.AddReplacement(g.n(nm), g.mapping())
			}
			m.Variants = append(m.Variants, v)
		}
		for j, nk := 0, g.n(2); j < nk; j++ {
			k := sched.KofN{Class: g.loid(), K: g.n(3)}
			for a, na := 0, g.n(3); a < na; a++ {
				k.Alternatives = append(k.Alternatives, sched.HostVault{Host: g.loid(), Vault: g.loid()})
			}
			m.KofN = append(m.KofN, k)
		}
		masters = append(masters, m)
	}
	return sched.RequestList{
		ID:      g.uint64(),
		Masters: masters,
		Res: sched.ReservationSpec{
			Share: g.bool(), Reuse: g.bool(),
			Start: g.time(), Duration: g.dur(), Timeout: g.dur(),
			Priority: int(g.byte()) - 128,
			Tenant:   g.sym(), Deadline: g.dur(),
			Budget: float64(g.int64()) / 3.0,
		},
	}
}

// message picks one registered type and fills it from the input.
func (g *gen) message() any {
	switch g.n(27) {
	case 0:
		return MakeReservationArgs{Requester: g.loid(), Vault: g.loid(),
			Type:  reservation.Type{Share: g.bool(), Reuse: g.bool()},
			Start: g.time(), Duration: g.dur(), Timeout: g.dur(), Priority: int(g.byte()) - 128,
			Tenant: g.sym()}
	case 1:
		return MakeReservationReply{Token: g.token(), Cost: float64(g.int64()) / 3.0}
	case 2:
		return TokenArgs{Token: g.token()}
	case 3:
		return StartObjectArgs{Token: g.token(), Class: g.loid(), Instances: g.loids(), State: g.opr()}
	case 4:
		return StartObjectReply{Started: g.loids()}
	case 5:
		return DeactivateReply{OPR: g.opr(), Vault: g.loid()}
	case 6:
		return VaultOKArgs{Vault: g.loid(), Zone: g.sym()}
	case 7:
		return AttributesReply{Attrs: g.attrs()}
	case 8:
		return DefineTriggerArgs{Name: g.sym(), Guard: g.str()}
	case 9:
		return NotifyArgs{Source: g.loid(), Trigger: g.sym(), Attrs: g.attrs(), Time: g.time()}
	case 10:
		return StoreOPRArgs{OPR: g.opr()}
	case 11:
		return RetrieveOPRReply{OPR: g.opr()}
	case 12:
		return JoinArgs{Joiner: g.loid(), Attrs: g.attrs(), Credential: g.str()}
	case 13:
		return UpdateArgs{Member: g.loid(), Attrs: g.attrs()}
	case 14:
		return QueryArgs{Query: g.str()}
	case 15:
		var recs []CollectionRecord
		for i, n := 0, g.n(4); i < n; i++ {
			recs = append(recs, CollectionRecord{Member: g.loid(), Attrs: g.attrs(), UpdatedAt: g.time()})
		}
		return QueryReply{Records: recs, SkippedShards: g.n(4)}
	case 16:
		var entries []BatchEntry
		for i, n := 0, g.n(3); i < n; i++ {
			entries = append(entries, BatchEntry{Member: g.loid(), Attrs: g.attrs(), UpdateOnly: g.bool()})
		}
		return BatchUpdateArgs{Entries: entries, Credential: g.str()}
	case 17:
		args := CreateInstanceArgs{Count: g.n(8), State: g.opr()}
		if g.bool() {
			args.Placement = &Placement{Host: g.loid(), Vault: g.loid(), Token: g.token()}
		}
		return args
	case 18:
		return CreateInstanceReply{Instances: g.loids(), Host: g.loid(), Vault: g.loid()}
	case 19:
		var impls []Implementation
		for i, n := 0, g.n(3); i < n; i++ {
			impls = append(impls, Implementation{Arch: g.sym(), OS: g.sym(), MemoryMB: int(g.uint64())})
		}
		return ImplementationsReply{Impls: impls}
	case 20:
		return MakeReservationsArgs{Request: g.requestList(), RequesterDomain: g.sym()}
	case 21:
		fb := sched.Feedback{
			Request: g.requestList(), Success: g.bool(),
			MasterIndex: g.n(4) - 1,
			Reason:      sched.FailureReason(g.n(5)),
			Detail:      g.str(),
			Stats: sched.EnactmentStats{
				ReservationsRequested: g.n(16), ReservationsGranted: g.n(16),
				ReservationsCancelled: g.n(16), VariantsTried: g.n(16), MastersTried: g.n(16),
			},
		}
		for i, n := 0, g.n(3); i < n; i++ {
			fb.Resolved = append(fb.Resolved, g.mapping())
			fb.VariantsApplied = append(fb.VariantsApplied, g.n(8))
		}
		return FeedbackReply{Feedback: fb}
	case 22:
		var inst [][]loid.LOID
		for i, n := 0, g.n(3); i < n; i++ {
			inst = append(inst, g.loids())
		}
		return EnactReply{Instances: inst, Success: g.bool(), Detail: g.str()}
	case 23:
		return AccountArgs{Tenant: g.sym()}
	case 24:
		return AccountDepositArgs{Tenant: g.sym(), Amount: g.int64()}
	case 25:
		return AccountReply{Tenant: g.sym(), Budget: g.int64(), Spent: g.int64(),
			Refunded: g.int64(), Remaining: g.int64()}
	default:
		sr := ServicesReply{
			Collection: g.loid(), Enactor: g.loid(), Monitor: g.loid(),
			Hosts: g.loids(), Vaults: g.loids(),
		}
		if n := g.n(3); n > 0 {
			sr.Classes = make(map[string]loid.LOID, n)
			for i := 0; i < n; i++ {
				sr.Classes[g.sym()+string(rune('a'+i))] = g.loid()
			}
		}
		return sr
	}
}

// FuzzCodecRoundTrip is the differential fuzzer behind the codec
// migration: for any generated message, the binary encode/decode round
// trip must agree with the gob round trip of the same value, and
// arbitrary attacker bytes fed to the decoder must fail cleanly, never
// panic.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})
	f.Add([]byte("legion-codec-differential-seed"))
	for i := byte(0); i < 27; i++ { // one seed steering into each message arm
		f.Add([]byte{i, 0xff, 0x7f, 0x80, 0x01, 0x3c, 0xa5, 0x5a, 0x00, 0x10, 0xfe, 0x42, i * 11, 0x9c, 0x63, 0x31})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arm 1: adversarial decode — raw fuzz bytes are not a valid
		// payload in general; decoding must error or succeed, not panic.
		if v, err := orb.DecodePayloadBytes(data); err == nil {
			// Whatever decoded cleanly must re-encode.
			if _, err := orb.EncodePayloadBytes(v); err != nil {
				t.Fatalf("decoded value %T fails to re-encode: %v", v, err)
			}
		}

		// Arm 2: differential round trip on a structured message derived
		// from the same bytes.
		g := &gen{data: data}
		msg := g.message()
		b, err := orb.EncodePayloadBytes(msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		got, err := orb.DecodePayloadBytes(b)
		if err != nil {
			t.Fatalf("%T: decode own encoding: %v", msg, err)
		}
		want, err := gobRoundTrip(msg)
		if err != nil {
			t.Fatalf("%T: gob reference: %v", msg, err)
		}
		if !wireEqual(got, want) {
			t.Fatalf("%T: binary and gob round trips diverge\nbinary: %#v\ngob:    %#v", msg, got, want)
		}
	})
}
