// Package sched implements the Schedule data structure of Figure 5 and
// the feedback types exchanged between Schedulers and Enactors (§3.3):
// LegionScheduleList, LegionScheduleRequestList, LegionScheduleFeedback.
//
// A Schedule has at least one Master Schedule; each Master Schedule may
// carry a list of Variant Schedules. Both contain mappings of type
// (Class LOID -> (Host LOID x Vault LOID)): each mapping says an instance
// of the class should be started on that (Host, Vault) pair. Each variant
// carries a bitmap (one bit per master mapping) telling the Enactor which
// master entries the variant replaces, so the Enactor can efficiently
// select the next variant to try when an entry fails — keeping "the
// intelligence where it belongs: under the control of the Scheduler
// implementer".
package sched

import (
	"fmt"
	"math/bits"
	"strings"
)

// Bitmap is a dense bitset, one bit per master-schedule mapping. It has
// n 64-bit words. A bitmap of at most one word — every schedule of up to
// 64 mappings — keeps it inline in w0, so making one allocates nothing;
// a longer one keeps all n in words, and w0 is zero. Each size has that
// one form, so two equal bitmaps are equal field by field.
type Bitmap struct {
	n     int
	w0    uint64
	words []uint64 // nil unless n > 1
}

// NewBitmap returns a bitmap able to hold at least n bits.
func NewBitmap(n int) Bitmap {
	if n < 0 {
		panic("sched: negative bitmap size")
	}
	var b Bitmap
	b.grow((n + 63) / 64)
	return b
}

// NewBitmapOf returns a bitmap of at least n bits with the given bits
// set — the Enactor builds a round's collected failure bitmap from the
// indices gathered off its parallel reservation calls.
func NewBitmapOf(n int, bits ...int) Bitmap {
	b := NewBitmap(n)
	for _, i := range bits {
		b.Set(i)
	}
	return b
}

// word returns word i < b.n.
func (b *Bitmap) word(i int) uint64 {
	if b.words == nil {
		return b.w0
	}
	return b.words[i]
}

// grow extends b to n words, if it has fewer; the new words are zero.
func (b *Bitmap) grow(n int) {
	switch {
	case n <= b.n:
		return
	case n == 1:
	case b.words == nil:
		b.words = make([]uint64, n)
		b.words[0], b.w0 = b.w0, 0
	default:
		b.words = append(b.words, make([]uint64, n-b.n)...)
	}
	b.n = n
}

// Set sets bit i, growing the bitmap if needed.
func (b *Bitmap) Set(i int) {
	if i < 0 {
		panic("sched: negative bit index")
	}
	b.grow(i/64 + 1)
	if b.words == nil {
		b.w0 |= 1 << (i % 64)
		return
	}
	b.words[i/64] |= 1 << (i % 64)
}

// Get reports bit i; bits beyond the current size read as zero.
func (b Bitmap) Get(i int) bool {
	if i < 0 {
		return false
	}
	w := i / 64
	return w < b.n && b.word(w)&(1<<(i%64)) != 0
}

// Any reports whether any bit is set.
func (b Bitmap) Any() bool {
	for i := 0; i < b.n; i++ {
		if b.word(i) != 0 {
			return true
		}
	}
	return false
}

// Intersects reports whether b and o share any set bit. The Enactor uses
// this to find a variant covering the failed mappings in one word-wise
// sweep rather than per-entry scans.
func (b Bitmap) Intersects(o Bitmap) bool {
	for i := 0; i < b.n && i < o.n; i++ {
		if b.word(i)&o.word(i) != 0 {
			return true
		}
	}
	return false
}

// Contains reports whether every set bit of o is also set in b.
func (b Bitmap) Contains(o Bitmap) bool {
	for i := 0; i < o.n; i++ {
		var bw uint64
		if i < b.n {
			bw = b.word(i)
		}
		if o.word(i)&^bw != 0 {
			return false
		}
	}
	return true
}

// Bits returns the indices of set bits in ascending order.
func (b Bitmap) Bits() []int {
	var out []int
	for wi := 0; wi < b.n; wi++ {
		for w := b.word(wi); w != 0; {
			i := bits.TrailingZeros64(w)
			out = append(out, wi*64+i)
			w &^= 1 << i
		}
	}
	return out
}

// GobEncode implements gob.GobEncoder: the bitmap's words are unexported,
// and gob is how the wire codec's test reference (proto/gob_ref_test.go)
// carries a schedule. It stays off AppendWire so that reference does not
// compare the codec with itself.
func (b Bitmap) GobEncode() ([]byte, error) {
	out := make([]byte, 8*b.n)
	for i := 0; i < b.n; i++ {
		w := b.word(i)
		for j := 0; j < 8; j++ {
			out[i*8+j] = byte(w >> (8 * j))
		}
	}
	return out, nil
}

// GobDecode implements gob.GobDecoder.
func (b *Bitmap) GobDecode(data []byte) error {
	if len(data)%8 != 0 {
		return fmt.Errorf("sched: bitmap payload length %d not a multiple of 8", len(data))
	}
	*b = Bitmap{}
	b.grow(len(data) / 8)
	for i := 0; i < b.n; i++ {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(data[i*8+j]) << (8 * j)
		}
		b.setWord(i, w)
	}
	return nil
}

// setWord sets word i < b.n to w.
func (b *Bitmap) setWord(i int, w uint64) {
	if b.words == nil {
		b.w0 = w
		return
	}
	b.words[i] = w
}

// String renders the set bits, e.g. "{0,3,17}".
func (b Bitmap) String() string {
	bs := b.Bits()
	parts := make([]string, len(bs))
	for i, x := range bs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
