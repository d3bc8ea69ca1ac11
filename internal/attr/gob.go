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
	w := wireValue{Kind: v.Kind(), S: v.s, F: v.FloatVal(), B: v.BoolVal(), L: v.list()}
	if w.Kind == KindInt {
		w.I = int64(v.w)
	}
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
	switch w.Kind {
	case KindInvalid:
		*v = Value{}
	case KindString:
		*v = String(w.S)
	case KindInt:
		*v = Int(w.I)
	case KindFloat:
		*v = Float(w.F)
	case KindBool:
		*v = Bool(w.B)
	case KindList:
		l := w.L
		*v = Value{kind: uint8(KindList), l: &l}
	default:
		return fmt.Errorf("attr: gob decode: invalid kind %d", int(w.Kind))
	}
	return nil
}
