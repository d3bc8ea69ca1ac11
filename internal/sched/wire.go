package sched

import (
	"legion/internal/wire"
)

// This file gives the Figure 5 schedule structures hand-rolled binary
// wire encodings. MakeReservations carries an entire RequestList per
// call and its Feedback echoes it back, so these are the largest
// messages on the negotiation hot path. A fresh decode takes one
// allocation per element type (slabs), not one per list; the lists of
// one message share memory, so keeping one keeps the message. A decode
// into a retained struct reuses each list that has the capacity.

// AppendWire appends the bitmap's word vector.
func (b Bitmap) AppendWire(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(b.n))
	for i := 0; i < b.n; i++ {
		buf = wire.AppendUvarint(buf, b.word(i))
	}
	return buf
}

// DecodeWire consumes a Bitmap, reusing the word slice's capacity when
// it has more than one word.
func (b *Bitmap) DecodeWire(r *wire.Reader) {
	n := r.Len()
	if r.Err != nil || n <= 1 {
		*b = Bitmap{}
		if n == 1 {
			b.grow(1)
			b.w0 = r.Uvarint()
		}
		return
	}
	if cap(b.words) >= n {
		b.words = b.words[:n]
	} else {
		b.words = make([]uint64, n)
	}
	b.n, b.w0 = n, 0
	for i := range b.words {
		b.words[i] = r.Uvarint()
	}
}

// AppendWire appends the mapping's three LOIDs.
func (m Mapping) AppendWire(b []byte) []byte {
	b = m.Class.AppendWire(b)
	b = m.Host.AppendWire(b)
	return m.Vault.AppendWire(b)
}

// DecodeWire consumes a Mapping.
func (m *Mapping) DecodeWire(r *wire.Reader) {
	m.Class.DecodeWire(r)
	m.Host.DecodeWire(r)
	m.Vault.DecodeWire(r)
}

func appendMappings(b []byte, ms []Mapping) []byte {
	b = wire.AppendUvarint(b, uint64(len(ms)))
	for i := range ms {
		b = ms[i].AppendWire(b)
	}
	return b
}

// Each element's smallest encoding, in bytes: what bounds a count, and
// the slab a count may reserve, by the bytes left to read. A LOID is two
// length prefixes and a serial.
const (
	minLOID        = 3
	minMapping     = 3 * minLOID
	minReplacement = 1 + minMapping
	minVariant     = 2 // a replacement count and a bitmap length
	minHostVault   = 2 * minLOID
	minKofN        = minLOID + 2
	minMaster      = 3 // three counts
)

// slabs are the backing arrays one fresh decode carves its lists from,
// one per element type: a schedule of m masters costs one allocation per
// type, not one per master, variant and k-of-n group. The lists share
// memory, so whoever keeps one list keeps the message.
type slabs struct {
	mappings     []Mapping
	variants     []Variant
	replacements []Replacement
	kofn         []KofN
	alts         []HostVault
	// resolved is how many mapping lists follow the masters' in the same
	// message: a Feedback's Resolved, sized like a master's mappings.
	resolved int
}

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

// decodeMappings consumes a mapping list, one of lists still to come.
func decodeMappings(r *wire.Reader, reuse []Mapping, s *slabs, lists int) []Mapping {
	out := carve(r, reuse, &s.mappings, r.Len(), lists, minMapping)
	for i := range out {
		out[i].DecodeWire(r)
	}
	return out
}

// AppendWire appends the variant: replacements then coverage bitmap.
func (v *Variant) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(v.Replacements)))
	for i := range v.Replacements {
		b = wire.AppendVarint(b, int64(v.Replacements[i].Index))
		b = v.Replacements[i].Mapping.AppendWire(b)
	}
	return v.Covers.AppendWire(b)
}

// decodeVariant consumes a Variant, one of lists still to come.
func decodeVariant(r *wire.Reader, v *Variant, s *slabs, lists int) {
	v.Replacements = carve(r, v.Replacements, &s.replacements, r.Len(), lists, minReplacement)
	for i := range v.Replacements {
		v.Replacements[i].Index = int(r.Varint())
		v.Replacements[i].Mapping.DecodeWire(r)
	}
	v.Covers.DecodeWire(r)
}

// AppendWire appends the k-of-n equivalence class.
func (g *KofN) AppendWire(b []byte) []byte {
	b = g.Class.AppendWire(b)
	b = wire.AppendVarint(b, int64(g.K))
	b = wire.AppendUvarint(b, uint64(len(g.Alternatives)))
	for i := range g.Alternatives {
		b = g.Alternatives[i].Host.AppendWire(b)
		b = g.Alternatives[i].Vault.AppendWire(b)
	}
	return b
}

// decodeKofN consumes a KofN, one of lists still to come.
func decodeKofN(r *wire.Reader, g *KofN, s *slabs, lists int) {
	g.Class.DecodeWire(r)
	g.K = int(r.Varint())
	g.Alternatives = carve(r, g.Alternatives, &s.alts, r.Len(), lists, minHostVault)
	for i := range g.Alternatives {
		g.Alternatives[i].Host.DecodeWire(r)
		g.Alternatives[i].Vault.DecodeWire(r)
	}
}

// AppendWire appends the master schedule.
func (m *Master) AppendWire(b []byte) []byte {
	b = appendMappings(b, m.Mappings)
	b = wire.AppendUvarint(b, uint64(len(m.Variants)))
	for i := range m.Variants {
		b = m.Variants[i].AppendWire(b)
	}
	b = wire.AppendUvarint(b, uint64(len(m.KofN)))
	for i := range m.KofN {
		b = m.KofN[i].AppendWire(b)
	}
	return b
}

// decodeMaster consumes a Master, the first of left masters still to
// come. A slab it refills is sized as if each later master had this
// one's counts.
func decodeMaster(r *wire.Reader, m *Master, s *slabs, left int) {
	m.Mappings = decodeMappings(r, m.Mappings, s, left+s.resolved)
	m.Variants = carve(r, m.Variants, &s.variants, r.Len(), left, minVariant)
	for i := range m.Variants {
		decodeVariant(r, &m.Variants[i], s, len(m.Variants)*left-i)
	}
	m.KofN = carve(r, m.KofN, &s.kofn, r.Len(), left, minKofN)
	for i := range m.KofN {
		decodeKofN(r, &m.KofN[i], s, len(m.KofN)*left-i)
	}
}

// AppendWire appends the reservation spec.
func (s *ReservationSpec) AppendWire(b []byte) []byte {
	b = wire.AppendBool(b, s.Share)
	b = wire.AppendBool(b, s.Reuse)
	b = wire.AppendTime(b, s.Start)
	b = wire.AppendDuration(b, s.Duration)
	b = wire.AppendDuration(b, s.Timeout)
	b = wire.AppendVarint(b, int64(s.Priority))
	b = wire.AppendString(b, s.Tenant)
	b = wire.AppendDuration(b, s.Deadline)
	return wire.AppendFloat64(b, s.Budget)
}

// DecodeWire consumes a ReservationSpec.
func (s *ReservationSpec) DecodeWire(r *wire.Reader) {
	s.Share = r.Bool()
	s.Reuse = r.Bool()
	s.Start = r.Time()
	s.Duration = r.Duration()
	s.Timeout = r.Duration()
	s.Priority = int(r.Varint())
	s.Tenant = r.Sym()
	s.Deadline = r.Duration()
	s.Budget = r.Float64()
}

// AppendWire appends the full LegionScheduleRequestList.
func (rl *RequestList) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, rl.ID)
	b = wire.AppendUvarint(b, uint64(len(rl.Masters)))
	for i := range rl.Masters {
		b = rl.Masters[i].AppendWire(b)
	}
	return rl.Res.AppendWire(b)
}

// DecodeWire consumes a RequestList. A fresh decode carves its lists
// from one slab per element type (slabs); a retained struct's lists are
// reused where they have the capacity.
func (rl *RequestList) DecodeWire(r *wire.Reader) { rl.decodeWire(r, &slabs{}) }

func (rl *RequestList) decodeWire(r *wire.Reader, s *slabs) {
	rl.ID = r.Uvarint()
	var masters []Master
	rl.Masters = carve(r, rl.Masters, &masters, r.Len(), 1, minMaster)
	for i := range rl.Masters {
		decodeMaster(r, &rl.Masters[i], s, len(rl.Masters)-i)
	}
	rl.Res.DecodeWire(r)
}

// AppendWire appends the LegionScheduleFeedback.
func (f *Feedback) AppendWire(b []byte) []byte {
	b = f.Request.AppendWire(b)
	b = wire.AppendBool(b, f.Success)
	b = wire.AppendVarint(b, int64(f.MasterIndex))
	b = appendMappings(b, f.Resolved)
	b = wire.AppendUvarint(b, uint64(len(f.VariantsApplied)))
	for _, vi := range f.VariantsApplied {
		b = wire.AppendVarint(b, int64(vi))
	}
	b = wire.AppendVarint(b, int64(f.Reason))
	b = wire.AppendString(b, f.Detail)
	b = wire.AppendVarint(b, int64(f.Stats.ReservationsRequested))
	b = wire.AppendVarint(b, int64(f.Stats.ReservationsGranted))
	b = wire.AppendVarint(b, int64(f.Stats.ReservationsCancelled))
	b = wire.AppendVarint(b, int64(f.Stats.VariantsTried))
	return wire.AppendVarint(b, int64(f.Stats.MastersTried))
}

// DecodeWire consumes a Feedback. Resolved is carved from the slab its
// request's master mappings come from.
func (f *Feedback) DecodeWire(r *wire.Reader) {
	s := slabs{resolved: 1}
	f.Request.decodeWire(r, &s)
	f.Success = r.Bool()
	f.MasterIndex = int(r.Varint())
	f.Resolved = decodeMappings(r, f.Resolved, &s, 1)
	var applied []int
	f.VariantsApplied = carve(r, f.VariantsApplied, &applied, r.Len(), 1, 1)
	for i := range f.VariantsApplied {
		f.VariantsApplied[i] = int(r.Varint())
	}
	f.Reason = FailureReason(r.Varint())
	f.Detail = r.Str()
	f.Stats.ReservationsRequested = int(r.Varint())
	f.Stats.ReservationsGranted = int(r.Varint())
	f.Stats.ReservationsCancelled = int(r.Varint())
	f.Stats.VariantsTried = int(r.Varint())
	f.Stats.MastersTried = int(r.Varint())
}
