package attr

import (
	"bytes"
	"testing"
)

// FuzzDecode asserts the gob decoder is total over arbitrary bytes — a
// malformed payload must produce an error, never a panic or an
// out-of-range Value, or the codec's gob test reference could crash on
// the inputs it exists to judge — and that whatever it accepts survives
// an encode/decode round trip unchanged.
func FuzzDecode(f *testing.F) {
	for _, v := range []Value{
		{},
		String(""),
		String("Linux"),
		Int(-42),
		Float(0.25),
		Bool(true),
		List(),
		Strings("v1", "v2"),
		List(Int(1), String("x"), List(Bool(false), Float(3.14))),
	} {
		enc, err := v.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		var v Value
		if err := v.GobDecode(data); err != nil {
			return
		}
		if k := v.Kind(); k < KindInvalid || k > KindList {
			t.Fatalf("decoded out-of-range kind %d", int(k))
		}
		reenc, err := v.GobEncode()
		if err != nil {
			t.Fatalf("re-encode of accepted value failed: %v", err)
		}
		var v2 Value
		if err := v2.GobDecode(reenc); err != nil {
			t.Fatalf("decode of re-encoded value failed: %v", err)
		}
		if !v.Equal(v2) {
			t.Fatalf("round trip changed value: %s != %s", v, v2)
		}
		// String() must be total too — records get rendered in traces.
		_ = v.String()
		_ = bytes.Equal(data, reenc) // representations may differ; only values must match
	})
}

// TestDecodeRejectsInvalidKind pins the hardening: a wire value whose
// Kind is outside the enum must be refused, not stored.
func TestDecodeRejectsInvalidKind(t *testing.T) {
	good := String("x")
	enc, err := good.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var v Value
	if err := v.GobDecode(enc); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}

	for _, k := range []Kind{Kind(-1), KindList + 1, Kind(1000)} {
		bad := Value{kind: k, s: "x"}
		enc, err := bad.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var out Value
		if err := out.GobDecode(enc); err == nil {
			t.Errorf("kind %d: decode accepted out-of-range kind", int(k))
		}
	}
}
