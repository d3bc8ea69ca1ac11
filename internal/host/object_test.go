package host

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/reservation"
	"legion/internal/vault"
	"legion/internal/vclock"
	"legion/internal/wire"
)

// NewGenericObject creates a GenericObject for the instance, restoring
// from the OPR when non-nil, as a Host's activation does in place.
func NewGenericObject(instance loid.LOID, state *opr.OPR) (*GenericObject, error) {
	g := new(GenericObject)
	if err := g.init(instance, state); err != nil {
		return nil, err
	}
	return g, nil
}

// genericWith builds a GenericObject holding n payload keys and pings
// served pings.
func genericWith(t *testing.T, n, pings int) *GenericObject {
	t.Helper()
	g, err := NewGenericObject(instances(1)[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		kv := []string{fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i)}
		if _, err := g.Dispatch(ctx, "set", kv); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pings; i++ {
		if _, err := g.Dispatch(ctx, "ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func save(t *testing.T, g *GenericObject) *opr.OPR {
	t.Helper()
	payload, err := g.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	o, err := opr.New(g.LOID(), 1, time.Unix(1e9, 0), payload)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestSaveStateDeterministic: an unchanged object saves to the same
// bytes, and so the same digest, however often it is saved — map
// iteration order must not reach the payload.
func TestSaveStateDeterministic(t *testing.T) {
	g := genericWith(t, 8, 3)
	first := save(t, g)
	for i := 1; i < 50; i++ {
		if o := save(t, g); o.Digest != first.Digest {
			t.Fatalf("save %d: digest %x, first save %x", i, o.Digest, first.Digest)
		}
	}
}

// TestGenericStateGoldenBytes pins the state encoding: pings and
// generation as zigzag varints, then the pair count and the pairs in
// key order.
func TestGenericStateGoldenBytes(t *testing.T) {
	g := genericWith(t, 0, 3)
	ctx := context.Background()
	for _, kv := range [][]string{{"b", "2"}, {"a", "1"}, {"", "empty key"}} {
		if _, err := g.Dispatch(ctx, "set", kv); err != nil {
			t.Fatal(err)
		}
	}
	g.generation = 2
	const want = "0604" + "03" + // pings 3, generation 2, three pairs
		"00" + "09656d707479206b6579" + // "" -> "empty key"
		"0161" + "0131" + // "a" -> "1"
		"0162" + "0132" // "b" -> "2"
	o := save(t, g)
	if got := hex.EncodeToString(o.Payload); got != want {
		t.Fatalf("encoded state\n got %s\nwant %s", got, want)
	}
	back, err := NewGenericObject(g.LOID(), o)
	if err != nil {
		t.Fatal(err)
	}
	if back.Pings() != 3 || back.Generation() != 3 || len(back.payload) != 3 ||
		back.payload["a"] != "1" || back.payload["b"] != "2" || back.payload[""] != "empty key" {
		t.Errorf("restored pings=%d generation=%d payload=%v", back.Pings(), back.Generation(), back.payload)
	}
}

// TestDeactivateStampsTheHostClock: the OPR's save instant is the
// host's clock, so a virtual run saves at virtual time.
func TestDeactivateStampsTheHostClock(t *testing.T) {
	clk := vclock.NewVirtualAt(time.Unix(1e9, 0))
	rt := orb.NewRuntime("uva")
	rt.SetClock(clk)
	v := vault.New(rt, vault.Config{Zone: "z1"})
	h := New(rt, Config{Arch: "sparc", OS: "IRIX", CPUs: 4, MemoryMB: 512, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()}})
	inst := instances(1)[0]
	clk.Run(func() {
		ctx := context.Background()
		tok, err := h.MakeReservation(ctx, proto.MakeReservationArgs{
			Requester: classL, Vault: v.LOID(),
			Type: reservation.ReusableTimesharing, Duration: time.Hour,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := h.StartObject(ctx, proto.StartObjectArgs{
			Token: *tok, Class: classL, Instances: []loid.LOID{inst},
		}); err != nil {
			t.Error(err)
			return
		}
		if err := clk.Sleep(ctx, 90*time.Second); err != nil {
			t.Error(err)
			return
		}
		o, _, err := h.DeactivateObject(ctx, inst)
		if err != nil {
			t.Error(err)
			return
		}
		if want := time.Unix(1e9+90, 0); !o.SavedAt.Equal(want) || !o.SavedAt.Equal(clk.Now()) {
			t.Errorf("SavedAt = %v, want the virtual instant %v", o.SavedAt, want)
		}
	})
}

// TestCorruptStateRefused: a payload that no longer matches its digest
// is refused by the Vault on store and by the object on restore.
func TestCorruptStateRefused(t *testing.T) {
	o := save(t, genericWith(t, 2, 1))
	o.Payload[len(o.Payload)-1] ^= 0x01
	if err := vault.New(orb.NewRuntime("uva"), vault.Config{}).Store(o); !errors.Is(err, opr.ErrCorrupt) {
		t.Errorf("Vault.Store = %v, want ErrCorrupt", err)
	}
	if _, err := NewGenericObject(o.Object, o); !errors.Is(err, opr.ErrCorrupt) {
		t.Errorf("restore = %v, want ErrCorrupt", err)
	}
}

// TestGenericStateDecodeRejects: input the encoder cannot have written
// is an error, not a panic and not a second spelling of some state.
func TestGenericStateDecodeRejects(t *testing.T) {
	good := save(t, genericWith(t, 2, 1)).Payload
	huge := wire.AppendUvarint([]byte{0x02, 0x00}, wire.MaxLen+1)
	for name, data := range map[string][]byte{
		"empty":          nil,
		"truncated":      good[:len(good)-1],
		"trailing byte":  append(append([]byte(nil), good...), 0),
		"oversize count": huge,
		"count past end": {0x02, 0x00, 0x05},
		"unsorted keys":  {0x00, 0x00, 0x02, 0x01, 'b', 0x00, 0x01, 'a', 0x00},
		"repeated key":   {0x00, 0x00, 0x02, 0x01, 'a', 0x00, 0x01, 'a', 0x00},
		"padded varint":  {0x80, 0x00, 0x00, 0x00},
	} {
		if _, err := decodeGenericState(data); err == nil {
			t.Errorf("%s: accepted % x", name, data)
		}
	}
	if _, err := decodeGenericState(good); err != nil {
		t.Errorf("encoder output refused: %v", err)
	}
}

// FuzzGenericStateDecode: arbitrary bytes never panic the decoder, and
// whatever it accepts is the one encoding of the state it returns. The
// seed corpus is testdata/fuzz/FuzzGenericStateDecode.
func FuzzGenericStateDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeGenericState(data)
		if err != nil {
			return
		}
		if got := s.appendWire(nil); string(got) != string(data) {
			t.Fatalf("accepted % x, re-encodes as % x", data, got)
		}
	})
}
