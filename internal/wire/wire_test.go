package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// field is one primitive: how to append a value and how to read it back
// and compare. The tests below run every property over this one list.
type field struct {
	name   string
	append func(b []byte) []byte
	check  func(r *Reader) error
}

func fieldOf[T any](name string, v T, app func([]byte, T) []byte, read func(*Reader) T, eq func(a, b T) bool) field {
	return field{
		name:   fmt.Sprintf("%s(%v)", name, v),
		append: func(b []byte) []byte { return app(b, v) },
		check: func(r *Reader) error {
			if got := read(r); r.Err == nil && !eq(got, v) {
				return fmt.Errorf("read %v, want %v", got, v)
			}
			return nil
		},
	}
}

func same[T comparable](a, b T) bool { return a == b }

func fields() []field {
	var fs []field
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 32, math.MaxUint64} {
		fs = append(fs, fieldOf("uvarint", v, AppendUvarint, (*Reader).Uvarint, same[uint64]))
	}
	for _, v := range []int64{0, -1, 1, 63, -64, 64, math.MinInt64, math.MaxInt64} {
		fs = append(fs, fieldOf("varint", v, AppendVarint, (*Reader).Varint, same[int64]))
	}
	for _, v := range []bool{false, true} {
		fs = append(fs, fieldOf("bool", v, AppendBool, (*Reader).Bool, same[bool]))
	}
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	for _, v := range []float64{0, math.Copysign(0, -1), 0.5, -1e300, math.Inf(1), math.NaN(), nanPayload} {
		fs = append(fs, fieldOf("float64", v, AppendFloat64, (*Reader).Float64,
			func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }))
	}
	for _, v := range []string{"", "x", "zone-1", strings.Repeat("long ", 60)} {
		fs = append(fs, fieldOf("str", v, AppendString, (*Reader).Str, same[string]))
		fs = append(fs, fieldOf("sym", v, AppendString, (*Reader).Sym, same[string]))
	}
	for _, v := range [][]byte{nil, {0}, {1, 2, 3}, bytes.Repeat([]byte{0xab}, 200)} {
		fs = append(fs, fieldOf("bytes", v, AppendBytes,
			func(r *Reader) []byte { return r.Bytes(nil) }, bytes.Equal))
	}
	for _, v := range []time.Time{{}, time.Unix(0, 1), time.Unix(1_700_000_000, 999_999_999), time.Unix(-5, 0)} {
		fs = append(fs, fieldOf("time", v, AppendTime, (*Reader).Time, time.Time.Equal))
	}
	for _, v := range []time.Duration{0, -time.Nanosecond, 90 * time.Minute, math.MinInt64} {
		fs = append(fs, fieldOf("duration", v, AppendDuration, (*Reader).Duration, same[time.Duration]))
	}
	return fs
}

// TestRoundTrip: every primitive reads back what was appended, alone and
// as one concatenated message read in order, consuming exactly its bytes.
func TestRoundTrip(t *testing.T) {
	var all []byte
	for _, f := range fields() {
		r := NewReader(f.append(nil))
		if err := f.check(&r); err != nil || r.Err != nil || len(r.B) != 0 {
			t.Errorf("%s: %v (Err=%v, %d bytes left)", f.name, err, r.Err, len(r.B))
		}
		all = f.append(all)
	}
	r := NewReader(all)
	for _, f := range fields() {
		if err := f.check(&r); err != nil || r.Err != nil {
			t.Fatalf("in sequence, %s: %v (Err=%v)", f.name, err, r.Err)
		}
	}
	if len(r.B) != 0 {
		t.Fatalf("%d bytes left after the last field", len(r.B))
	}
}

// TestTruncationAtEveryPrefix cuts each primitive's encoding at every
// length short of the whole: the read must report ErrTruncated, return
// without panicking, and consume nothing further.
func TestTruncationAtEveryPrefix(t *testing.T) {
	for _, f := range fields() {
		enc := f.append(nil)
		for cut := 0; cut < len(enc); cut++ {
			r := NewReader(enc[:cut:cut])
			f.check(&r)
			if !errors.Is(r.Err, ErrTruncated) {
				t.Errorf("%s cut at %d/%d: Err=%v, want ErrTruncated", f.name, cut, len(enc), r.Err)
			}
		}
	}
}

// TestStickyErr: after the first failure every read returns its zero
// value, leaves the buffer alone, and keeps the first error.
func TestStickyErr(t *testing.T) {
	good := AppendBool(AppendString(AppendUvarint(nil, 9), "after"), true)
	r := NewReader(append([]byte{2}, good...)) // 2 is not a bool
	if r.Bool() || r.Err == nil {
		t.Fatalf("invalid bool byte accepted (Err=%v)", r.Err)
	}
	first, rest := r.Err, len(r.B)
	if r.Uvarint() != 0 || r.Varint() != 0 || r.Bool() || r.Float64() != 0 || r.Len() != 0 ||
		r.Str() != "" || r.Sym() != "" || r.Bytes(nil) != nil || !r.Time().IsZero() || r.Duration() != 0 {
		t.Fatal("a read after the failure returned a non-zero value")
	}
	if r.Err != first || len(r.B) != rest {
		t.Fatalf("later reads moved the error (%v -> %v) or the buffer (%d -> %d)", first, r.Err, rest, len(r.B))
	}
	r.Reset(good)
	if r.Uvarint() != 9 || r.Str() != "after" || !r.Bool() || r.Err != nil {
		t.Fatalf("Reset did not clear the error: %v", r.Err)
	}
}

// TestFormatErrors covers the three malformed encodings that are not
// truncations.
func TestFormatErrors(t *testing.T) {
	for c := 2; c < 256; c++ {
		r := NewReader([]byte{byte(c)})
		if r.Bool(); r.Err == nil || errors.Is(r.Err, ErrTruncated) {
			t.Fatalf("bool byte %d: Err=%v", c, r.Err)
		}
	}

	// A length prefix may claim MaxLen exactly (and then be truncated);
	// one past it is refused before the buffer is even consulted.
	r := NewReader(AppendUvarint(nil, MaxLen))
	if r.Len(); !errors.Is(r.Err, ErrTruncated) {
		t.Fatalf("length MaxLen over an empty buffer: Err=%v, want ErrTruncated", r.Err)
	}
	for _, read := range []func(*Reader){
		func(r *Reader) { r.Len() },
		func(r *Reader) { r.Str() },
		func(r *Reader) { r.Sym() },
		func(r *Reader) { r.Bytes(nil) },
	} {
		r := NewReader(AppendUvarint(nil, MaxLen+1))
		if read(&r); !errors.Is(r.Err, ErrTooLarge) {
			t.Fatalf("length MaxLen+1: Err=%v, want ErrTooLarge", r.Err)
		}
	}

	nsec := func(n uint64) []byte { return AppendUvarint(AppendVarint([]byte{1}, 1_700_000_000), n) }
	r = NewReader(nsec(999_999_999))
	if got := r.Time(); r.Err != nil || got.Nanosecond() != 999_999_999 {
		t.Fatalf("largest valid nanoseconds: %v %v", got, r.Err)
	}
	r = NewReader(nsec(1_000_000_000))
	if got := r.Time(); r.Err == nil || !got.IsZero() {
		t.Fatalf("nanoseconds 1e9 accepted: %v", got)
	}
}

// TestSymEqualsStr: Sym is Str plus sharing. Whatever the cache and the
// intern table hold, both return the same text — including names built
// to land in the same cache slot, read alternately so each evicts the
// other.
func TestSymEqualsStr(t *testing.T) {
	// The slot hash reads only the length and the edge bytes.
	colliding := []string{"a-middle-1-z", "a-middle-2-z", "a-MIDDLE-3-z", "a----------z"}
	names := append([]string{"", "x", "Host", "zone-1", strings.Repeat("n", internMaxStrLen+1)}, colliding...)
	var enc []byte
	for round := 0; round < 3; round++ {
		for _, n := range names {
			enc = AppendString(enc, n)
		}
	}
	str, sym := NewReader(enc), NewReader(enc)
	for i := 0; len(str.B) > 0; i++ {
		want, got := str.Str(), sym.Sym()
		if got != want || str.Err != nil || sym.Err != nil {
			t.Fatalf("field %d: Sym=%q Str=%q (errs %v, %v)", i, got, want, sym.Err, str.Err)
		}
	}
	if len(sym.B) != 0 {
		t.Fatalf("Sym consumed %d fewer bytes than Str", len(sym.B))
	}

	// Sharing: two reads of one symbol return the same backing string.
	r := NewReader(AppendString(AppendString(nil, "shared-symbol"), "shared-symbol"))
	a, b := r.Sym(), r.Sym()
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("repeated symbol was allocated twice")
	}
}

// TestBytesReuse: the blob lands in the caller's capacity when it fits,
// never aliases the Reader's buffer, and an empty blob is nil.
func TestBytesReuse(t *testing.T) {
	enc := AppendBytes(nil, []byte{1, 2, 3})
	reuse := make([]byte, 0, 8)
	r := NewReader(enc)
	got := r.Bytes(reuse)
	if !bytes.Equal(got, []byte{1, 2, 3}) || &got[0] != &reuse[:1][0] {
		t.Fatalf("Bytes did not decode into the reuse buffer: %v", got)
	}
	r = NewReader(enc)
	got = r.Bytes(make([]byte, 0, 2))
	enc[1] = 99
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes aliases the Reader's buffer: %v", got)
	}
	r = NewReader(AppendBytes(nil, nil))
	if got := r.Bytes(reuse); got != nil || r.Err != nil {
		t.Fatalf("empty blob = %v, %v", got, r.Err)
	}
}

// TestPools: pooled buffers come back empty, oversized ones are not
// kept, and a pooled Reader starts clean.
func TestPools(t *testing.T) {
	p := GetBuf()
	*p = append(*p, "residue"...)
	PutBuf(p)
	if q := GetBuf(); len(*q) != 0 {
		t.Fatalf("pooled buffer came back with %d bytes", len(*q))
	}
	huge := make([]byte, 0, recycleMax+1)
	PutBuf(&huge) // dropped, not pooled: nothing to observe but no panic
	PutBuf(nil)

	r := GetReader([]byte{2})
	r.Bool()
	PutReader(r)
	r = GetReader(AppendUvarint(nil, 5))
	if r.Uvarint() != 5 || r.Err != nil {
		t.Fatalf("pooled Reader kept state: %v", r.Err)
	}
	PutReader(r)
}

// TestInternBounds: strings past internMaxStrLen are returned but never
// retained, and the table stops growing at internMaxEntries while still
// returning correct strings. Runs last in the file: it fills the
// process-wide table.
func TestInternBounds(t *testing.T) {
	retained := func(s string) bool {
		internMu.Lock()
		defer internMu.Unlock()
		_, ok := internMaster[s]
		return ok
	}
	if Intern(nil) != "" {
		t.Fatal("empty input")
	}
	atCap, over := strings.Repeat("k", internMaxStrLen), strings.Repeat("k", internMaxStrLen+1)
	if Intern([]byte(atCap)) != atCap || !retained(atCap) {
		t.Fatal("a string at the length cap was not interned")
	}
	if Intern([]byte(over)) != over || retained(over) {
		t.Fatal("a string past the length cap was retained")
	}

	for i := 0; i < internMaxEntries+100; i++ {
		s := fmt.Sprintf("hostile-%d", i)
		if got := Intern([]byte(s)); got != s {
			t.Fatalf("Intern(%q) = %q", s, got)
		}
	}
	internMu.Lock()
	n := len(internMaster)
	internMu.Unlock()
	if n != internMaxEntries {
		t.Fatalf("table holds %d entries, cap %d", n, internMaxEntries)
	}
	if retained(fmt.Sprintf("hostile-%d", internMaxEntries+99)) {
		t.Fatal("an entry past the cap was retained")
	}
	// Earlier entries still resolve to their shared copy.
	a, b := Intern([]byte(atCap)), Intern([]byte(atCap))
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("interned string no longer shared once the table is full")
	}
}
