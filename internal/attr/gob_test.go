package attr

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestGobEncodeDecode(t *testing.T) {
	vals := []Value{
		String("hi"),
		Int(-7),
		Float(3.25),
		Bool(true),
		List(Int(1), String("a"), List(Bool(false))),
		{}, // invalid value survives too
	}
	for _, in := range vals {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(in); err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		var out Value
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		if in.IsValid() != out.IsValid() {
			t.Errorf("validity changed for %v", in)
		}
		if in.IsValid() && !in.Equal(out) {
			t.Errorf("round trip %v -> %v", in, out)
		}
		if in.Kind() != out.Kind() {
			t.Errorf("kind changed: %v -> %v", in.Kind(), out.Kind())
		}
	}
}

func TestGobPairSlice(t *testing.T) {
	in := []Pair{
		{Name: "os", Value: String("IRIX")},
		{Name: "load", Value: Float(0.25)},
		{Name: "vaults", Value: Strings("v1", "v2")},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out []Pair
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if out[i].Name != in[i].Name || !out[i].Value.Equal(in[i].Value) {
			t.Errorf("pair %d: %v -> %v", i, in[i], out[i])
		}
	}
}

func TestGobDecodeGarbage(t *testing.T) {
	var v Value
	if err := v.GobDecode([]byte("not gob data")); err == nil {
		t.Error("garbage decoded")
	}
}
