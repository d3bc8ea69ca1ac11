package attr

import (
	"fmt"

	"legion/internal/wire"
)

// maxWireDepth bounds list nesting on decode, mirroring the recursion
// limit the gob decoder enforces: a hostile frame must not be able to
// exhaust the stack with a deeply nested list.
const maxWireDepth = 32

// AppendWire appends the Value in the ORB's binary wire format: a kind
// byte followed by the kind's payload.
func (v Value) AppendWire(b []byte) []byte {
	b = append(b, v.kind)
	switch v.Kind() {
	case KindString:
		b = wire.AppendString(b, v.s)
	case KindInt:
		b = wire.AppendVarint(b, int64(v.w))
	case KindFloat:
		b = wire.AppendFloat64(b, v.FloatVal())
	case KindBool:
		b = wire.AppendBool(b, v.BoolVal())
	case KindList:
		l := v.list()
		b = wire.AppendUvarint(b, uint64(len(l)))
		for i := range l {
			b = l[i].AppendWire(b)
		}
	}
	return b
}

// DecodeWire consumes a Value encoded by AppendWire. String payloads are
// interned — attribute values repeat across a fleet ("linux", "x86_64",
// zone names) almost as much as attribute names do.
func (v *Value) DecodeWire(r *wire.Reader) { v.decodeWire(r, 0) }

func (v *Value) decodeWire(r *wire.Reader, depth int) {
	if r.Err != nil {
		*v = Value{}
		return
	}
	if depth > maxWireDepth {
		r.Err = fmt.Errorf("attr: wire decode: list nesting exceeds %d", maxWireDepth)
		*v = Value{}
		return
	}
	if len(r.B) < 1 {
		r.Err = wire.ErrTruncated
		*v = Value{}
		return
	}
	k := Kind(r.B[0])
	r.B = r.B[1:]
	switch k {
	case KindInvalid:
		*v = Value{}
	case KindString:
		*v = String(r.Sym())
	case KindInt:
		*v = Int(r.Varint())
	case KindFloat:
		*v = Float(r.Float64())
	case KindBool:
		*v = Bool(r.Bool())
	case KindList:
		*v = Value{kind: uint8(KindList)}
		n := r.Len()
		if r.Err != nil || n == 0 {
			return
		}
		l := make([]Value, n)
		for i := range l {
			l[i].decodeWire(r, depth+1)
		}
		v.l = &l
	default:
		r.Err = fmt.Errorf("attr: wire decode: invalid kind %d", int(k))
		*v = Value{}
	}
}

// AppendWirePairs appends a length-prefixed Pair slice.
func AppendWirePairs(b []byte, ps []Pair) []byte {
	b = wire.AppendUvarint(b, uint64(len(ps)))
	for i := range ps {
		b = wire.AppendString(b, ps[i].Name)
		b = ps[i].Value.AppendWire(b)
	}
	return b
}

// DecodeWirePairs consumes a Pair slice, reusing reuse's capacity. Pair
// names are interned.
func DecodeWirePairs(r *wire.Reader, reuse []Pair) []Pair {
	n := r.Len()
	if r.Err != nil || n == 0 {
		return nil
	}
	var out []Pair
	if cap(reuse) >= n {
		out = reuse[:n]
	} else {
		out = make([]Pair, n)
	}
	for i := range out {
		out[i].Name = r.Sym()
		out[i].Value.DecodeWire(r)
	}
	return out
}
