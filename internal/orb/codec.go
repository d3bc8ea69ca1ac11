package orb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"legion/internal/wire"
)

// This file is the ORB's wire codec, the only format runtimes speak.
// Frames are length-prefixed; headers are varints (request ID, LOID,
// per-connection interned method ID, trace/span IDs, deadline); payloads
// are hand-rolled WireMessage encodings selected by stable registered
// type IDs, plus two built-in tags for string and []string.

// preamble is the 4-byte connection open: magic, protocol version, and
// the codec byte. 'B' is the only codec; 'G' named the gob stream this
// format replaced and is refused.
var preamble = [4]byte{'L', 'G', 1, 'B'}

// maxFrameLen bounds a single frame; larger prefixes indicate a
// corrupt stream and drop the connection.
const maxFrameLen = 1 << 26 // 64M

// --- payload registry ---

// WireMessage is implemented by message types that cross the wire with
// hand-rolled encodings. AppendWire appends the value to b and returns
// the extended slice. It takes a value receiver, so a T and a *T both
// encode through one interface call and neither is copied to the heap.
// Decoding is not a method here: each type registers a typed decoder
// with RegisterWireMessage.
type WireMessage interface {
	AppendWire(b []byte) []byte
}

// Payload tags. Tags below WireIDFirst are structural or built in;
// registered message type IDs start at WireIDFirst and are stable,
// explicitly assigned constants (package proto). No tag is ever
// renumbered or reused: 1 carried inline gob blobs and stays retired.
const (
	payloadNil     = 0 // nil argument or result
	payloadString  = 2 // string
	payloadStrings = 3 // []string
	// WireIDFirst is the smallest assignable message type ID.
	WireIDFirst = 16
)

// ErrUnregisteredType reports a value the codec has no encoding for: it
// is neither nil, a string, a []string, nor a registered WireMessage.
var ErrUnregisteredType = errors.New("orb: type not registered for the wire")

// typedCodec is one registered message type's codec: its ID, a decoder
// to a T and an encoder from a T. Neither boxes: they are what a call
// whose argument or reply type is known at compile time (Invoke, Typed)
// encodes and decodes through. The encoder takes T by value, because a
// *T passed through a function value would move the caller's T to the
// heap.
type typedCodec[T any] struct {
	id     uint64
	decode func(r *wire.Reader) T
	append func(b []byte, v T) []byte // the payload: tag, then body
}

// payloadCodec is a typedCodec as the registry files it, with the one
// method the boxed path needs.
type payloadCodec interface {
	wireID() uint64
	decodeAny(r *wire.Reader) any
}

func (c *typedCodec[T]) wireID() uint64 { return c.id }

// decodeAny is the boxed decoder DecodePayload uses, derived from the
// typed one: the value it returns is a T.
func (c *typedCodec[T]) decodeAny(r *wire.Reader) any {
	m := c.decode(r)
	if r.Err != nil {
		return nil
	}
	return m
}

// decodeTagged consumes the payload at the front of r as a T. ok is
// false, with r untouched, when the payload does not start with T's tag:
// it is of another type, or nil, or its tag is corrupt, and
// DecodePayload reads or refuses it as it would any payload. A T that
// fails to decode is DecodePayload's error.
func (c *typedCodec[T]) decodeTagged(r *wire.Reader) (v T, ok bool, err error) {
	tag, n := binary.Uvarint(r.B)
	if n <= 0 || tag != c.id {
		return v, false, nil
	}
	r.B = r.B[n:]
	v = c.decode(r)
	if r.Err != nil {
		return v, true, fmt.Errorf("orb: decode wire type %d: %w", tag, r.Err)
	}
	return v, true, nil
}

// The registry: each registered type's codec, filed under its type, its
// pointer type and its ID. Registration fills it in init functions;
// afterwards it is only read.
var (
	wireRegMu  sync.RWMutex
	wireByType = make(map[reflect.Type]payloadCodec)
	wireByID   = make(map[uint64]payloadCodec)
)

// RegisterWireMessage registers T under the given stable wire type ID
// with dec, the decoder that reads one T from r and reports malformed
// input through r.Err — e.g.
//
//	RegisterWireMessage(id, func(r *wire.Reader) (m ObjectArgs) { m.DecodeWire(r); return })
//
// T is inferred from dec's result, so a decoder cannot be filed under
// another type. Values of both T and *T encode under the ID; decoding
// always produces a T value. Registration happens in init functions;
// re-registering an ID or type panics.
func RegisterWireMessage[T WireMessage](id uint16, dec func(r *wire.Reader) T) {
	if id < WireIDFirst {
		panic(fmt.Sprintf("orb: wire type ID %d is reserved (first assignable is %d)", id, WireIDFirst))
	}
	typ := reflect.TypeFor[T]()
	wireRegMu.Lock()
	defer wireRegMu.Unlock()
	if _, dup := wireByID[uint64(id)]; dup {
		panic(fmt.Sprintf("orb: wire type ID %d registered twice", id))
	}
	if _, dup := wireByType[typ]; dup {
		panic(fmt.Sprintf("orb: wire type %v registered twice", typ))
	}
	c := &typedCodec[T]{
		id:     uint64(id),
		decode: dec,
		append: func(b []byte, v T) []byte { return v.AppendWire(wire.AppendUvarint(b, uint64(id))) },
	}
	wireByType[typ] = c
	wireByType[reflect.PointerTo(typ)] = c
	wireByID[uint64(id)] = c
}

// codecOf returns T's codec, or nil when T has none: it was not
// registered (nil, string, []string and interface types never are), or
// T is the pointer to a registered type, which the boxed path encodes.
func codecOf[T any]() *typedCodec[T] {
	wireRegMu.RLock()
	c, _ := wireByType[reflect.TypeFor[T]()].(*typedCodec[T])
	wireRegMu.RUnlock()
	return c
}

// AppendPayload appends v's payload encoding: a uvarint type tag and
// the body. A type with no encoding fails with ErrUnregisteredType.
func AppendPayload(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return wire.AppendUvarint(b, payloadNil), nil
	case string:
		return wire.AppendString(wire.AppendUvarint(b, payloadString), x), nil
	case []string:
		b = wire.AppendUvarint(b, payloadStrings)
		b = wire.AppendUvarint(b, uint64(len(x)))
		for _, s := range x {
			b = wire.AppendString(b, s)
		}
		return b, nil
	}
	m, ok := v.(WireMessage)
	if !ok {
		return b, fmt.Errorf("%w: %T", ErrUnregisteredType, v)
	}
	wireRegMu.RLock()
	c, ok := wireByType[reflect.TypeOf(v)]
	wireRegMu.RUnlock()
	if !ok {
		return b, fmt.Errorf("%w: %T", ErrUnregisteredType, v)
	}
	return m.AppendWire(wire.AppendUvarint(b, c.wireID())), nil
}

// DecodePayload consumes one payload from r. Decoded values never alias
// r's buffer, so transports may recycle it immediately.
func DecodePayload(r *wire.Reader) (any, error) {
	tag := r.Uvarint()
	if r.Err != nil {
		return nil, r.Err
	}
	switch tag {
	case payloadNil:
		return nil, nil
	case payloadString:
		s := r.Str()
		return s, r.Err
	case payloadStrings:
		out := make([]string, r.Len())
		for i := range out {
			out[i] = r.Str()
		}
		if r.Err != nil {
			return nil, r.Err
		}
		return out, nil
	default:
		wireRegMu.RLock()
		c := wireByID[tag]
		wireRegMu.RUnlock()
		if c == nil {
			return nil, fmt.Errorf("orb: unknown wire type ID %d", tag)
		}
		v := c.decodeAny(r)
		if r.Err != nil {
			return nil, fmt.Errorf("orb: decode wire type %d: %w", tag, r.Err)
		}
		return v, nil
	}
}

// EncodePayloadBytes is AppendPayload into a fresh slice; the
// loopback-codec boundary and the differential fuzzers use it.
func EncodePayloadBytes(v any) ([]byte, error) {
	return AppendPayload(nil, v)
}

// DecodePayloadBytes decodes exactly one payload from b, rejecting
// trailing garbage.
func DecodePayloadBytes(b []byte) (any, error) {
	r := wire.GetReader(b)
	defer wire.PutReader(r)
	v, err := DecodePayload(r)
	if err != nil {
		return nil, err
	}
	if len(r.B) != 0 {
		return nil, fmt.Errorf("orb: payload has %d trailing bytes", len(r.B))
	}
	return v, nil
}

// --- method tables ---

// The frame header carries methods as per-connection interned IDs: the
// first frame naming a method carries (ID, name); later frames carry
// the ID alone. Tables are built independently on each side of every
// connection, so no global registration order has to agree between
// runtimes.

// methodIntern is the sender side: name -> assigned ID.
type methodIntern struct {
	ids  map[string]uint64
	next uint64
	// defined is the name the last intern call assigned an ID to, until
	// the coalescer takes it for the frame being appended: that frame
	// carries the definition later frames rely on (see coalescer.cancel).
	defined string
}

// intern returns the method's connection-local ID, assigning the next
// one on first use. The caller must serialize intern calls with frame
// emission (the coalescer lock does this) so the introducing frame
// reaches the peer first.
func (m *methodIntern) intern(name string) (id uint64, first bool) {
	if m.ids == nil {
		m.ids = make(map[string]uint64, 16)
	}
	if id, ok := m.ids[name]; ok {
		return id, false
	}
	m.next++
	m.ids[name] = m.next
	m.defined = name
	return m.next, true
}

// methodTable is the receiver side: ID -> name. It is built from what
// the peer sends, so both its size and the names it retains are capped;
// a frame past either cap is a corrupt header. Real vocabularies are a
// few dozen short constants (package proto).
type methodTable struct {
	names map[uint64]methodEntry
}

// methodEntry is a defined method and the name of the span that serves
// it, built once per connection instead of once per frame.
type methodEntry struct {
	name, span string
}

const (
	maxMethods       = 1024
	maxMethodNameLen = 128
)

// define records id -> name, refusing to grow past maxMethods.
func (m *methodTable) define(id uint64, name string) (methodEntry, bool) {
	if m.names == nil {
		m.names = make(map[uint64]methodEntry, 16)
	}
	if _, known := m.names[id]; !known && len(m.names) >= maxMethods {
		return methodEntry{}, false
	}
	e := methodEntry{name: name, span: "rpc/" + name}
	m.names[id] = e
	return e, true
}

// appendMethod appends the method field: uvarint id<<1|first, then the
// name when first.
func appendMethod(b []byte, mi *methodIntern, name string) []byte {
	id, first := mi.intern(name)
	code := id << 1
	if first {
		code |= 1
	}
	b = wire.AppendUvarint(b, code)
	if first {
		b = wire.AppendString(b, name)
	}
	return b
}

// decodeMethod consumes a method field against the connection's table.
func decodeMethod(r *wire.Reader, mt *methodTable) (methodEntry, error) {
	code := r.Uvarint()
	if r.Err != nil {
		return methodEntry{}, r.Err
	}
	id := code >> 1
	if code&1 == 1 {
		n := r.Len()
		if r.Err != nil {
			return methodEntry{}, r.Err
		}
		if n > maxMethodNameLen {
			return methodEntry{}, fmt.Errorf("orb: method name of %d bytes exceeds limit", n)
		}
		name := wire.Intern(r.B[:n])
		r.B = r.B[n:]
		e, ok := mt.define(id, name)
		if !ok {
			return methodEntry{}, fmt.Errorf("orb: connection defines more than %d methods", maxMethods)
		}
		return e, nil
	}
	e, ok := mt.names[id]
	if !ok {
		return methodEntry{}, fmt.Errorf("orb: frame references undefined method ID %d", id)
	}
	return e, nil
}

// --- frames ---

// appendRequestFrame appends one length-prefixed request frame: header
// (request ID, method, target LOID, trace/span IDs, deadline) + the
// pre-encoded payload bytes. The header is encoded under the caller's
// (coalescer) lock because method interning must be ordered with frame
// emission; the payload was encoded outside any lock.
func appendRequestFrame(b []byte, scratch *[]byte, mi *methodIntern, req *request, payload []byte) []byte {
	h := (*scratch)[:0]
	h = wire.AppendUvarint(h, req.ID)
	h = appendMethod(h, mi, req.Method)
	h = req.Target.AppendWire(h)
	h = wire.AppendUvarint(h, req.TraceID)
	h = wire.AppendUvarint(h, req.SpanID)
	h = wire.AppendVarint(h, req.Deadline)
	*scratch = h
	b = wire.AppendUvarint(b, uint64(len(h)+len(payload)))
	b = append(b, h...)
	return append(b, payload...)
}

// decodeRequestHeader consumes a request frame header (the length
// prefix already stripped); the payload is decoded separately so a bad
// payload can be answered without abandoning the stream.
func decodeRequestHeader(r *wire.Reader, mt *methodTable) (request, error) {
	var req request
	req.ID = r.Uvarint()
	m, err := decodeMethod(r, mt)
	if err != nil {
		return req, err
	}
	req.Method, req.span = m.name, m.span
	req.Target.DecodeWire(r)
	req.TraceID = r.Uvarint()
	req.SpanID = r.Uvarint()
	req.Deadline = r.Varint()
	return req, r.Err
}

// --- errors ---

// Error kinds: how a response frame says the call ended. The numbers
// are frame bytes and never change.
const (
	errKindNone    = iota // the call succeeded
	errKindGeneric        // the callee returned an error with no kind below
	errKindNotBound
	errKindNoMethod
	errKindDeadline
	errKindOverload
)

// errKinds is the one table of kinds that carry a sentinel: encodeErr
// sends an error wrapping one as its kind, and decodeErr gives it back.
var errKinds = [...]error{
	errKindNotBound: ErrNotBound,
	errKindNoMethod: ErrNoMethod,
	errKindDeadline: ErrDeadlineExpired,
	errKindOverload: ErrOverload,
}

// encodeErr is a method error as a response frame carries it: the kind
// of the first sentinel in errKinds it wraps, else errKindGeneric, and
// its text.
func encodeErr(err error) (int, string) {
	if err == nil {
		return errKindNone, ""
	}
	for kind, s := range errKinds {
		if s != nil && errors.Is(err, s) {
			return kind, err.Error()
		}
	}
	return errKindGeneric, err.Error()
}

// decodeErr is the callee's answer a response frame carried: nil, or a
// *RemoteError with the text as sent that unwraps to the kind's
// sentinel, if the kind has one.
func decodeErr(kind int, msg string) error {
	if kind == errKindNone {
		return nil
	}
	e := &RemoteError{Msg: msg}
	if uint(kind) < uint(len(errKinds)) {
		e.kind = errKinds[kind]
	}
	return e
}

// appendResponseFrame appends one length-prefixed response frame:
// request ID, error kind, error message, payload bytes (pre-encoded).
func appendResponseFrame(b []byte, scratch *[]byte, id uint64, errKind int, errMsg string, payload []byte) []byte {
	h := (*scratch)[:0]
	h = wire.AppendUvarint(h, id)
	h = wire.AppendUvarint(h, uint64(errKind))
	h = wire.AppendString(h, errMsg)
	*scratch = h
	b = wire.AppendUvarint(b, uint64(len(h)+len(payload)))
	b = append(b, h...)
	return append(b, payload...)
}

// decodeResponseHeader consumes a response frame's header from r, aimed
// at the frame's body: request ID, error kind and message. The payload
// is left in r for whoever decodes it.
func decodeResponseHeader(r *wire.Reader) (response, error) {
	var resp response
	resp.ID = r.Uvarint()
	resp.ErrKind = int(r.Uvarint())
	resp.ErrMsg = r.Str()
	return resp, r.Err
}
