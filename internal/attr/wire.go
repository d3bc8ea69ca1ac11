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

// Each element's smallest encoding, in bytes: what bounds a count, and
// the slab a count may reserve, by the bytes left to read. A pair is a
// name's length prefix and a kind byte.
const (
	minPair  = 2
	minValue = 1
)

// carve returns a list of n elements. It reslices dst when dst has the
// capacity, as a decode into a retained struct reuses it. Otherwise it
// carves n elements from *slab, refilling a short slab for lists lists
// of n, but never for more than the bytes left can encode at size bytes
// each; a count those bytes cannot hold fails the decode. The carved
// list is clipped, so an append to it cannot write into the next one.
// An empty list is nil.
func carve[T any](r *wire.Reader, dst []T, slab *[]T, n, lists, size int) []T {
	if n == 0 || r.Err != nil {
		return nil
	}
	if cap(dst) >= n {
		return dst[:n]
	}
	room := len(r.B) / size
	if n > room {
		r.Err = wire.ErrTruncated
		return nil
	}
	if len(*slab) < n {
		c := room
		if lists <= room/n {
			c = n * lists
		}
		*slab = make([]T, c)
	}
	s := *slab
	*slab = s[n:]
	return s[:n:n]
}

// decodeWire consumes a Value encoded by AppendWire. String payloads are
// interned — attribute values repeat across a fleet ("linux", "x86_64",
// zone names) almost as much as attribute names do. A list's header and
// elements are carved from *lists and *elems, refilled for left lists of
// this one's length.
func (v *Value) decodeWire(r *wire.Reader, depth int, lists *[][]Value, elems *[]Value, left int) {
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
		if n == 0 {
			return
		}
		// The n elements are in the bytes left, so neither carve fails.
		head := carve(r, nil, lists, 1, left, minValue)
		l := carve(r, nil, elems, n, left, minValue)
		for i := range l {
			l[i].decodeWire(r, depth+1, lists, elems, 1)
		}
		head[0] = l
		v.l = &head[0]
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

// DecodeWirePairs consumes a Pair slice, one of left lists still to
// come in the message. It decodes into reuse when reuse has the
// capacity, as a decode into a retained struct does. Otherwise it carves
// the pairs from *pairs, and each list value's header and elements from
// *lists and *elems: the slabs the lists of one message share, so a
// reply of many records costs one allocation per element type. A short
// slab is refilled for left lists of this one's length, never for more
// than the bytes left can encode. With nil slabs the list, and each list
// value in it, gets memory of its own, as an update's must: the
// Collection adopts an update's pairs as the record (DESIGN §9).
//
// Names are interned, and each is read first against the name at the
// same position in prev, the message's previous list: the records of
// one reply share a layout.
func DecodeWirePairs(r *wire.Reader, reuse, prev []Pair, left int, pairs *[]Pair, lists *[][]Value, elems *[]Value) []Pair {
	left = max(left, 1)
	if pairs == nil {
		var p []Pair
		var l [][]Value
		var e []Value
		pairs, lists, elems = &p, &l, &e
	}
	out := carve(r, reuse, pairs, r.Len(), left, minPair)
	for i := range out {
		hint := out[i].Name
		if i < len(prev) {
			hint = prev[i].Name
		}
		out[i].Name = r.SymHint(hint)
		out[i].Value.decodeWire(r, 0, lists, elems, left)
	}
	return out
}
