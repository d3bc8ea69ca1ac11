package sched

import (
	"legion/internal/wire"
)

// This file gives the Figure 5 schedule structures hand-rolled binary
// wire encodings. MakeReservations carries an entire RequestList per
// call, so this is the largest message on the negotiation hot path;
// every helper reuses caller slice capacity on decode.

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

func decodeMappings(r *wire.Reader, reuse []Mapping) []Mapping {
	n := r.Len()
	if r.Err != nil || n == 0 {
		return nil
	}
	var out []Mapping
	if cap(reuse) >= n {
		out = reuse[:n]
	} else {
		out = make([]Mapping, n)
	}
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

// DecodeWire consumes a Variant, reusing slice capacities.
func (v *Variant) DecodeWire(r *wire.Reader) {
	n := r.Len()
	if n > 0 {
		if cap(v.Replacements) >= n {
			v.Replacements = v.Replacements[:n]
		} else {
			v.Replacements = make([]Replacement, n)
		}
		for i := range v.Replacements {
			v.Replacements[i].Index = int(r.Varint())
			v.Replacements[i].Mapping.DecodeWire(r)
		}
	} else {
		v.Replacements = nil
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

// DecodeWire consumes a KofN, reusing the alternatives slice.
func (g *KofN) DecodeWire(r *wire.Reader) {
	g.Class.DecodeWire(r)
	g.K = int(r.Varint())
	n := r.Len()
	if r.Err != nil || n == 0 {
		g.Alternatives = nil
		return
	}
	if cap(g.Alternatives) >= n {
		g.Alternatives = g.Alternatives[:n]
	} else {
		g.Alternatives = make([]HostVault, n)
	}
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

// DecodeWire consumes a Master, reusing nested slice capacities.
func (m *Master) DecodeWire(r *wire.Reader) {
	m.Mappings = decodeMappings(r, m.Mappings)
	n := r.Len()
	if n > 0 {
		if cap(m.Variants) >= n {
			m.Variants = m.Variants[:n]
		} else {
			m.Variants = make([]Variant, n)
		}
		for i := range m.Variants {
			m.Variants[i].DecodeWire(r)
		}
	} else {
		m.Variants = nil
	}
	n = r.Len()
	if n > 0 {
		if cap(m.KofN) >= n {
			m.KofN = m.KofN[:n]
		} else {
			m.KofN = make([]KofN, n)
		}
		for i := range m.KofN {
			m.KofN[i].DecodeWire(r)
		}
	} else {
		m.KofN = nil
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

// DecodeWire consumes a RequestList, reusing nested slice capacities.
func (rl *RequestList) DecodeWire(r *wire.Reader) {
	rl.ID = r.Uvarint()
	n := r.Len()
	if n > 0 {
		if cap(rl.Masters) >= n {
			rl.Masters = rl.Masters[:n]
		} else {
			rl.Masters = make([]Master, n)
		}
		for i := range rl.Masters {
			rl.Masters[i].DecodeWire(r)
		}
	} else {
		rl.Masters = nil
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

// DecodeWire consumes a Feedback, reusing nested slice capacities.
func (f *Feedback) DecodeWire(r *wire.Reader) {
	f.Request.DecodeWire(r)
	f.Success = r.Bool()
	f.MasterIndex = int(r.Varint())
	f.Resolved = decodeMappings(r, f.Resolved)
	n := r.Len()
	if n > 0 {
		if cap(f.VariantsApplied) >= n {
			f.VariantsApplied = f.VariantsApplied[:n]
		} else {
			f.VariantsApplied = make([]int, n)
		}
		for i := range f.VariantsApplied {
			f.VariantsApplied[i] = int(r.Varint())
		}
	} else {
		f.VariantsApplied = nil
	}
	f.Reason = FailureReason(r.Varint())
	f.Detail = r.Str()
	f.Stats.ReservationsRequested = int(r.Varint())
	f.Stats.ReservationsGranted = int(r.Varint())
	f.Stats.ReservationsCancelled = int(r.Varint())
	f.Stats.VariantsTried = int(r.Varint())
	f.Stats.MastersTried = int(r.Varint())
}
