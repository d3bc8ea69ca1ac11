// Package wire provides the primitives of the ORB's compact binary wire
// format: varint-based append/consume helpers, a sticky-error Reader,
// pooled encode buffers, and a bounded string-intern table.
//
// The design goal is zero steady-state allocation on the negotiation hot
// path. Encoders are plain append functions over a caller-owned []byte
// (pooled via GetBuf/PutBuf), so a message encode costs no allocations
// once the buffer has grown to its working size. Decoders go through
// Reader, which interns symbol-like strings (domains, class names,
// attribute names, methods) so the same host fleet decoded a million
// times allocates each name once, not a million times. The message
// decoders built on it reuse a retained struct's slice capacity, and
// otherwise carve one message's lists from one slab per element type.
//
// The format itself is deliberately boring: unsigned varints
// (encoding/binary layout), zigzag varints for signed values, IEEE-754
// bits for floats, and uvarint length prefixes for strings, byte blobs,
// and repeated fields. There is no embedded schema — both ends agree on
// field order via the hand-rolled AppendWire/DecodeWire methods of each
// message (package proto and friends), with stable explicit type IDs
// assigned at registration (package orb).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Errors reported by Reader. Decoders see them through Reader.Err.
var (
	// ErrTruncated reports that a field's encoding ran past the end of
	// the buffer.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrTooLarge reports a length prefix exceeding the sanity cap (a
	// corrupt or hostile frame, not a big message).
	ErrTooLarge = errors.New("wire: length prefix exceeds limit")
)

// MaxLen is the sanity cap on any single length prefix (strings, byte
// blobs, repeated-field counts). Frames are capped separately by the
// transport; this bound stops a corrupt 10-byte prefix from asking a
// decoder to allocate gigabytes.
const MaxLen = 1 << 26 // 64M

// --- append helpers ---

// AppendUvarint appends v in unsigned varint form.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v in zigzag varint form.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBool appends a single 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends the IEEE-754 bits, little-endian. Bit-exact
// round trip, NaN payloads included.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendString appends a uvarint length prefix and the string bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a uvarint length prefix and the raw bytes.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendTime appends t as a presence byte + Unix seconds (zigzag) +
// nanoseconds. The zero time is a single 0 byte. Monotonic readings and
// locations do not cross the wire: a non-zero time round-trips as
// time.Unix(sec, nsec) in the decoder's local zone, which compares
// Equal to the original.
func AppendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendVarint(b, t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

// AppendDuration appends d as a zigzag varint of nanoseconds.
func AppendDuration(b []byte, d time.Duration) []byte {
	return binary.AppendVarint(b, int64(d))
}

// --- Reader ---

// Reader consumes a buffer encoded with the append helpers. Errors are
// sticky: after the first failure every subsequent read returns the zero
// value and Err stays set, so decoders read a whole message and check
// once at the end.
type Reader struct {
	B   []byte
	Err error
	// sym is a direct-mapped cache in front of the global intern table.
	// Symbol vocabularies are tiny and repeat heavily within one message
	// (every LOID carries a domain and class), so most Sym reads hit here
	// and skip the shared table's atomic load and map hash entirely.
	sym [symCacheSize]string
}

const symCacheSize = 32 // must be a power of two

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{B: b} }

// Reset re-aims the Reader at b and clears the error, keeping the
// symbol cache warm. Per-connection read loops reuse one Reader across
// frames so the cache (and the Reader's heap allocation, when it
// escapes) amortizes to zero per frame.
func (r *Reader) Reset(b []byte) {
	r.B = b
	r.Err = nil
}

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.Err == nil {
		r.Err = err
	}
}

// Uvarint consumes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	// Single-byte fast path: lengths, counts, and small IDs dominate.
	if len(r.B) > 0 && r.B[0] < 0x80 {
		v := uint64(r.B[0])
		r.B = r.B[1:]
		return v
	}
	v, n := binary.Uvarint(r.B)
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.B = r.B[n:]
	return v
}

// Varint consumes a zigzag varint.
func (r *Reader) Varint() int64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Varint(r.B)
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.B = r.B[n:]
	return v
}

// Bool consumes a 0/1 byte; any other value is a format error.
func (r *Reader) Bool() bool {
	if r.Err != nil {
		return false
	}
	if len(r.B) < 1 {
		r.fail(ErrTruncated)
		return false
	}
	c := r.B[0]
	r.B = r.B[1:]
	if c > 1 {
		r.fail(fmt.Errorf("wire: invalid bool byte %d", c))
		return false
	}
	return c == 1
}

// Float64 consumes IEEE-754 bits.
func (r *Reader) Float64() float64 {
	if r.Err != nil {
		return 0
	}
	if len(r.B) < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.B))
	r.B = r.B[8:]
	return v
}

// Len consumes a uvarint length prefix and validates it against both
// the remaining buffer and MaxLen. Decoders use it for repeated-field
// counts; per-element size is at least one byte, so a count can never
// exceed the remaining bytes.
func (r *Reader) Len() int {
	n := r.Uvarint()
	if r.Err != nil {
		return 0
	}
	if n > MaxLen {
		r.fail(ErrTooLarge)
		return 0
	}
	if n > uint64(len(r.B)) {
		r.fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// take consumes exactly n bytes.
func (r *Reader) take(n int) []byte {
	p := r.B[:n]
	r.B = r.B[n:]
	return p
}

// Str consumes a length-prefixed string, allocating it. Use for
// free-form text (queries, error details, credentials).
func (r *Reader) Str() string {
	n := r.Len()
	if r.Err != nil {
		return ""
	}
	return string(r.take(n))
}

// Sym consumes a length-prefixed string through the intern table. Use
// for symbol-like fields drawn from small vocabularies — domains, class
// names, attribute names, method names — where the same few strings
// recur across millions of messages.
func (r *Reader) Sym() string {
	n := r.Len()
	if r.Err != nil || n == 0 {
		return ""
	}
	return r.intern(r.take(n))
}

// SymHint consumes a symbol as Sym does, but first reads it against
// hint, the symbol a decoder expects at this position: the name at the
// same place in the previous record of one reply. A record's names
// collide in the cache below, so a reply of one layout would otherwise
// miss it on about half of its names.
func (r *Reader) SymHint(hint string) string {
	n := r.Len()
	if r.Err != nil || n == 0 {
		return ""
	}
	b := r.take(n)
	if string(b) == hint {
		return hint
	}
	return r.intern(b)
}

// intern interns b through the Reader's cache.
func (r *Reader) intern(b []byte) string {
	n := len(b)
	// Constant-time slot hash over length and edge bytes: symbol
	// vocabularies are small, and a collision merely falls back to the
	// shared intern table, so cheapness beats distribution here.
	h := uint32(n)*33 + uint32(b[0])*7 + uint32(b[n-1])*3
	slot := &r.sym[h&(symCacheSize-1)]
	if *slot == string(b) { // comparison form: no allocation
		return *slot
	}
	s := Intern(b)
	*slot = s
	return s
}

// Bytes consumes a length-prefixed byte blob into reuse's capacity when
// it fits, allocating otherwise. An empty blob returns nil. The data is
// always copied — the Reader's buffer is transport-owned and recycled.
func (r *Reader) Bytes(reuse []byte) []byte {
	n := r.Len()
	if r.Err != nil || n == 0 {
		return nil
	}
	var dst []byte
	if cap(reuse) >= n {
		dst = reuse[:n]
	} else {
		dst = make([]byte, n)
	}
	copy(dst, r.take(n))
	return dst
}

// Time consumes a time encoded by AppendTime.
func (r *Reader) Time() time.Time {
	if !r.Bool() {
		return time.Time{}
	}
	sec := r.Varint()
	nsec := r.Uvarint()
	if r.Err != nil {
		return time.Time{}
	}
	if nsec > 999_999_999 {
		r.fail(fmt.Errorf("wire: invalid nanoseconds %d", nsec))
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec))
}

// Duration consumes a duration.
func (r *Reader) Duration() time.Duration { return time.Duration(r.Varint()) }

// --- intern table ---

// internMaxEntries bounds the process-wide intern table; past it, new
// strings are returned without being retained (hostile or unbounded
// vocabularies must not pin memory forever). internMaxStrLen keeps long
// free-form strings that were decoded via Sym by mistake from being
// pinned at all.
const (
	internMaxEntries = 1 << 16
	internMaxStrLen  = 128
)

var (
	internMu     sync.Mutex // guards internMaster, internDirty, publishing
	internMaster = make(map[string]string, 256)
	internDirty  int
	internSnap   atomic.Pointer[map[string]string]
)

// Intern returns a string equal to b, reusing a previously interned
// copy when possible. The read path is a single atomic load of an
// immutable snapshot map — no lock, and the []byte-keyed string map
// index does not allocate. Inserts go through a mutex-guarded master
// map and republish the snapshot: eagerly while the table is small,
// amortized (an eighth of the table must be new) once it is large, so
// a hostile vocabulary cannot force quadratic republishing work.
func Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxStrLen {
		return string(b)
	}
	if m := internSnap.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	s := string(b)
	internMu.Lock()
	if got, ok := internMaster[s]; ok {
		s = got
	} else if len(internMaster) < internMaxEntries {
		internMaster[s] = s
		internDirty++
	}
	if internDirty > 0 && (len(internMaster) <= 4096 || internDirty*8 >= len(internMaster)) {
		snap := make(map[string]string, len(internMaster))
		for k, v := range internMaster {
			snap[k] = v
		}
		internSnap.Store(&snap)
		internDirty = 0
	}
	internMu.Unlock()
	return s
}

// --- buffer pool ---

// bufPool recycles encode buffers across calls. Buffers that grew past
// recycleMax are dropped so one giant payload does not pin its memory
// for the life of the process.
const recycleMax = 1 << 20

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// GetBuf returns a pooled, length-zero buffer.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf recycles a buffer obtained from GetBuf. The caller must not
// retain any view of it.
func PutBuf(p *[]byte) {
	if p == nil || cap(*p) > recycleMax {
		return
	}
	*p = (*p)[:0]
	bufPool.Put(p)
}

var readerPool = sync.Pool{
	New: func() any { return new(Reader) },
}

// GetReader returns a pooled Reader aimed at b. Pooling keeps the
// symbol caches of recently-used Readers warm for call sites that
// decode one message at a time (the loopback boundary) rather than a
// per-connection stream.
func GetReader(b []byte) *Reader {
	r := readerPool.Get().(*Reader)
	r.Reset(b)
	return r
}

// PutReader recycles a Reader obtained from GetReader. The caller must
// not retain it or any string it wants re-checked: cached symbols
// persist by design.
func PutReader(r *Reader) {
	r.B = nil
	r.Err = nil
	readerPool.Put(r)
}
