package attr

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// wireValue is the gob-visible form of Value. Value keeps its fields
// unexported for immutability, so it implements GobEncoder/GobDecoder by
// round-tripping through this struct. Nothing the system itself reads
// is gob: the hook exists so the wire codec's test reference
// (proto/gob_ref_test.go, FuzzCodecRoundTrip) can carry attributes, and
// it stays off AppendWire so that reference does not compare the codec
// with itself.
type wireValue struct {
	Kind Kind
	S    string
	I    int64
	F    float64
	B    bool
	L    []Value
}

// GobEncode implements gob.GobEncoder.
func (v Value) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	w := wireValue{Kind: v.kind, S: v.s, I: v.i, F: v.f, B: v.b, L: v.l}
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("attr: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (v *Value) GobDecode(data []byte) error {
	var w wireValue
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("attr: gob decode: %w", err)
	}
	if w.Kind < KindInvalid || w.Kind > KindList {
		return fmt.Errorf("attr: gob decode: invalid kind %d", int(w.Kind))
	}
	v.kind, v.s, v.i, v.f, v.b, v.l = w.Kind, w.S, w.I, w.F, w.B, w.L
	return nil
}
