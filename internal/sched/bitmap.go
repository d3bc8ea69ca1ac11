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

// Bitmap is a dense bitset, one bit per master-schedule mapping.
type Bitmap struct {
	words []uint64
}

// NewBitmap returns a bitmap able to hold at least n bits.
func NewBitmap(n int) Bitmap {
	if n < 0 {
		panic("sched: negative bitmap size")
	}
	return Bitmap{words: make([]uint64, (n+63)/64)}
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

// Set sets bit i, growing the bitmap if needed.
func (b *Bitmap) Set(i int) {
	if i < 0 {
		panic("sched: negative bit index")
	}
	w := i / 64
	for w >= len(b.words) {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (i % 64)
}

// Get reports bit i; bits beyond the current size read as zero.
func (b Bitmap) Get(i int) bool {
	if i < 0 {
		return false
	}
	w := i / 64
	return w < len(b.words) && b.words[w]&(1<<(i%64)) != 0
}

// Any reports whether any bit is set.
func (b Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Intersects reports whether b and o share any set bit. The Enactor uses
// this to find a variant covering the failed mappings in one word-wise
// sweep rather than per-entry scans.
func (b Bitmap) Intersects(o Bitmap) bool {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if b.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Contains reports whether every set bit of o is also set in b.
func (b Bitmap) Contains(o Bitmap) bool {
	for i, w := range o.words {
		var bw uint64
		if i < len(b.words) {
			bw = b.words[i]
		}
		if w&^bw != 0 {
			return false
		}
	}
	return true
}

// Bits returns the indices of set bits in ascending order.
func (b Bitmap) Bits() []int {
	var out []int
	for wi, w := range b.words {
		for w != 0 {
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
	out := make([]byte, 8*len(b.words))
	for i, w := range b.words {
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
	b.words = make([]uint64, len(data)/8)
	for i := range b.words {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(data[i*8+j]) << (8 * j)
		}
		b.words[i] = w
	}
	return nil
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
