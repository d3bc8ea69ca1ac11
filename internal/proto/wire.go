// Binary wire encodings for every protocol message, registered under
// stable explicit type IDs (see init). The IDs appear on the wire, so
// they are append-only: never renumber or reuse one, even for a
// removed message, whose constant stays in the block as _. Field order
// in AppendWire/DecodeWire pairs is the schema — both directions must
// match exactly, and the differential fuzzer (FuzzCodecRoundTrip) holds
// every type to gob-equivalent round trips.
package proto

import (
	"sort"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/wire"
)

// Stable wire type IDs. Append-only.
const (
	wireMakeReservationArgs = orb.WireIDFirst + iota
	wireMakeReservationReply
	wireTokenArgs
	wireStartObjectArgs
	wireStartObjectReply
	wireObjectArgs
	wireDeactivateReply
	wireCompatibleVaultsReply
	wireVaultOKArgs
	wireBoolReply
	wireAttributesReply
	wireDefineTriggerArgs
	wireRegisterOutcallArgs
	wireNotifyArgs
	wireStoreOPRArgs
	wireRetrieveOPRArgs
	wireRetrieveOPRReply
	wireDeleteOPRArgs
	wireJoinArgs
	wireLeaveArgs
	wireUpdateArgs
	wireQueryArgs
	wireQueryReply
	wireCollectionRecord
	wireBatchEntry
	wireBatchUpdateArgs
	wireBatchUpdateReply
	wireCreateInstanceArgs
	wireCreateInstanceReply
	wireImplementationsReply
	wireInstancesReply
	wirePlacement
	wireImplementation
	wireMakeReservationsArgs
	wireFeedbackReply
	wireEnactScheduleArgs
	wireEnactReply
	wireCancelReservationsArgs
	wireAck
	wireServicesReply
	wireAccountArgs
	wireAccountDepositArgs
	wireAccountReply
)

func init() {
	orb.RegisterWireMessage(wireMakeReservationArgs, func(r *wire.Reader) (m MakeReservationArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireMakeReservationReply, func(r *wire.Reader) (m MakeReservationReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireTokenArgs, func(r *wire.Reader) (m TokenArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireStartObjectArgs, func(r *wire.Reader) (m StartObjectArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireStartObjectReply, func(r *wire.Reader) (m StartObjectReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireObjectArgs, func(r *wire.Reader) (m ObjectArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireDeactivateReply, func(r *wire.Reader) (m DeactivateReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireCompatibleVaultsReply, func(r *wire.Reader) (m CompatibleVaultsReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireVaultOKArgs, func(r *wire.Reader) (m VaultOKArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireBoolReply, func(r *wire.Reader) (m BoolReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireAttributesReply, func(r *wire.Reader) (m AttributesReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireDefineTriggerArgs, func(r *wire.Reader) (m DefineTriggerArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireRegisterOutcallArgs, func(r *wire.Reader) (m RegisterOutcallArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireNotifyArgs, func(r *wire.Reader) (m NotifyArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireStoreOPRArgs, func(r *wire.Reader) (m StoreOPRArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireRetrieveOPRArgs, func(r *wire.Reader) (m RetrieveOPRArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireRetrieveOPRReply, func(r *wire.Reader) (m RetrieveOPRReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireDeleteOPRArgs, func(r *wire.Reader) (m DeleteOPRArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireJoinArgs, func(r *wire.Reader) (m JoinArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireLeaveArgs, func(r *wire.Reader) (m LeaveArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireUpdateArgs, func(r *wire.Reader) (m UpdateArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireQueryArgs, func(r *wire.Reader) (m QueryArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireQueryReply, func(r *wire.Reader) (m QueryReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireCollectionRecord, func(r *wire.Reader) (m CollectionRecord) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireBatchEntry, func(r *wire.Reader) (m BatchEntry) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireBatchUpdateArgs, func(r *wire.Reader) (m BatchUpdateArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireBatchUpdateReply, func(r *wire.Reader) (m BatchUpdateReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireCreateInstanceArgs, func(r *wire.Reader) (m CreateInstanceArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireCreateInstanceReply, func(r *wire.Reader) (m CreateInstanceReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireImplementationsReply, func(r *wire.Reader) (m ImplementationsReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireInstancesReply, func(r *wire.Reader) (m InstancesReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wirePlacement, func(r *wire.Reader) (m Placement) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireImplementation, func(r *wire.Reader) (m Implementation) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireMakeReservationsArgs, func(r *wire.Reader) (m MakeReservationsArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireFeedbackReply, func(r *wire.Reader) (m FeedbackReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireEnactScheduleArgs, func(r *wire.Reader) (m EnactScheduleArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireEnactReply, func(r *wire.Reader) (m EnactReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireCancelReservationsArgs, func(r *wire.Reader) (m CancelReservationsArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireAck, func(r *wire.Reader) (m Ack) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireServicesReply, func(r *wire.Reader) (m ServicesReply) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireAccountArgs, func(r *wire.Reader) (m AccountArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireAccountDepositArgs, func(r *wire.Reader) (m AccountDepositArgs) { m.DecodeWire(r); return })
	orb.RegisterWireMessage(wireAccountReply, func(r *wire.Reader) (m AccountReply) { m.DecodeWire(r); return })
}

// --- Host messages ---

// AppendWire implements orb.WireMessage.
func (m MakeReservationArgs) AppendWire(b []byte) []byte {
	b = m.Requester.AppendWire(b)
	b = m.Vault.AppendWire(b)
	b = m.Type.AppendWire(b)
	b = wire.AppendTime(b, m.Start)
	b = wire.AppendDuration(b, m.Duration)
	b = wire.AppendDuration(b, m.Timeout)
	b = wire.AppendVarint(b, int64(m.Priority))
	return wire.AppendString(b, m.Tenant)
}

// DecodeWire reads what AppendWire writes.
func (m *MakeReservationArgs) DecodeWire(r *wire.Reader) {
	m.Requester.DecodeWire(r)
	m.Vault.DecodeWire(r)
	m.Type.DecodeWire(r)
	m.Start = r.Time()
	m.Duration = r.Duration()
	m.Timeout = r.Duration()
	m.Priority = int(r.Varint())
	m.Tenant = r.Sym()
}

// AppendWire implements orb.WireMessage.
func (m MakeReservationReply) AppendWire(b []byte) []byte {
	b = m.Token.AppendWire(b)
	return wire.AppendFloat64(b, m.Cost)
}

// DecodeWire reads what AppendWire writes.
func (m *MakeReservationReply) DecodeWire(r *wire.Reader) {
	m.Token.DecodeWire(r)
	m.Cost = r.Float64()
}

// AppendWire implements orb.WireMessage.
func (m AccountArgs) AppendWire(b []byte) []byte {
	return wire.AppendString(b, m.Tenant)
}

// DecodeWire reads what AppendWire writes.
func (m *AccountArgs) DecodeWire(r *wire.Reader) {
	m.Tenant = r.Sym()
}

// AppendWire implements orb.WireMessage.
func (m AccountDepositArgs) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.Tenant)
	return wire.AppendVarint(b, m.Amount)
}

// DecodeWire reads what AppendWire writes.
func (m *AccountDepositArgs) DecodeWire(r *wire.Reader) {
	m.Tenant = r.Sym()
	m.Amount = r.Varint()
}

// AppendWire implements orb.WireMessage.
func (m AccountReply) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.Tenant)
	b = wire.AppendVarint(b, m.Budget)
	b = wire.AppendVarint(b, m.Spent)
	b = wire.AppendVarint(b, m.Refunded)
	return wire.AppendVarint(b, m.Remaining)
}

// DecodeWire reads what AppendWire writes.
func (m *AccountReply) DecodeWire(r *wire.Reader) {
	m.Tenant = r.Sym()
	m.Budget = r.Varint()
	m.Spent = r.Varint()
	m.Refunded = r.Varint()
	m.Remaining = r.Varint()
}

// AppendWire implements orb.WireMessage.
func (m TokenArgs) AppendWire(b []byte) []byte {
	return m.Token.AppendWire(b)
}

// DecodeWire reads what AppendWire writes.
func (m *TokenArgs) DecodeWire(r *wire.Reader) {
	m.Token.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m StartObjectArgs) AppendWire(b []byte) []byte {
	b = m.Token.AppendWire(b)
	b = m.Class.AppendWire(b)
	b = loid.AppendWireSlice(b, m.Instances)
	return opr.AppendWirePtr(b, m.State)
}

// DecodeWire reads what AppendWire writes.
func (m *StartObjectArgs) DecodeWire(r *wire.Reader) {
	m.Token.DecodeWire(r)
	m.Class.DecodeWire(r)
	m.Instances = loid.DecodeWireSlice(r, m.Instances)
	m.State = opr.DecodeWirePtr(r, m.State)
}

// AppendWire implements orb.WireMessage.
func (m StartObjectReply) AppendWire(b []byte) []byte {
	return loid.AppendWireSlice(b, m.Started)
}

// DecodeWire reads what AppendWire writes.
func (m *StartObjectReply) DecodeWire(r *wire.Reader) {
	m.Started = loid.DecodeWireSlice(r, m.Started)
}

// AppendWire implements orb.WireMessage.
func (m ObjectArgs) AppendWire(b []byte) []byte {
	return m.Object.AppendWire(b)
}

// DecodeWire reads what AppendWire writes.
func (m *ObjectArgs) DecodeWire(r *wire.Reader) {
	m.Object.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m DeactivateReply) AppendWire(b []byte) []byte {
	b = opr.AppendWirePtr(b, m.OPR)
	return m.Vault.AppendWire(b)
}

// DecodeWire reads what AppendWire writes.
func (m *DeactivateReply) DecodeWire(r *wire.Reader) {
	m.OPR = opr.DecodeWirePtr(r, m.OPR)
	m.Vault.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m CompatibleVaultsReply) AppendWire(b []byte) []byte {
	return loid.AppendWireSlice(b, m.Vaults)
}

// DecodeWire reads what AppendWire writes.
func (m *CompatibleVaultsReply) DecodeWire(r *wire.Reader) {
	m.Vaults = loid.DecodeWireSlice(r, m.Vaults)
}

// AppendWire implements orb.WireMessage.
func (m VaultOKArgs) AppendWire(b []byte) []byte {
	b = m.Vault.AppendWire(b)
	return wire.AppendString(b, m.Zone)
}

// DecodeWire reads what AppendWire writes.
func (m *VaultOKArgs) DecodeWire(r *wire.Reader) {
	m.Vault.DecodeWire(r)
	m.Zone = r.Sym()
}

// AppendWire implements orb.WireMessage.
func (m BoolReply) AppendWire(b []byte) []byte {
	return wire.AppendBool(b, m.OK)
}

// DecodeWire reads what AppendWire writes.
func (m *BoolReply) DecodeWire(r *wire.Reader) {
	m.OK = r.Bool()
}

// AppendWire implements orb.WireMessage.
func (m AttributesReply) AppendWire(b []byte) []byte {
	return attr.AppendWirePairs(b, m.Attrs)
}

// DecodeWire reads what AppendWire writes.
func (m *AttributesReply) DecodeWire(r *wire.Reader) {
	m.Attrs = attr.DecodeWirePairs(r, m.Attrs)
}

// AppendWire implements orb.WireMessage.
func (m DefineTriggerArgs) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.Name)
	return wire.AppendString(b, m.Guard)
}

// DecodeWire reads what AppendWire writes.
func (m *DefineTriggerArgs) DecodeWire(r *wire.Reader) {
	m.Name = r.Sym()
	m.Guard = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m RegisterOutcallArgs) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.Trigger)
	return m.Monitor.AppendWire(b)
}

// DecodeWire reads what AppendWire writes.
func (m *RegisterOutcallArgs) DecodeWire(r *wire.Reader) {
	m.Trigger = r.Sym()
	m.Monitor.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m NotifyArgs) AppendWire(b []byte) []byte {
	b = m.Source.AppendWire(b)
	b = wire.AppendString(b, m.Trigger)
	b = attr.AppendWirePairs(b, m.Attrs)
	return wire.AppendTime(b, m.Time)
}

// DecodeWire reads what AppendWire writes.
func (m *NotifyArgs) DecodeWire(r *wire.Reader) {
	m.Source.DecodeWire(r)
	m.Trigger = r.Sym()
	m.Attrs = attr.DecodeWirePairs(r, m.Attrs)
	m.Time = r.Time()
}

// --- Vault messages ---

// AppendWire implements orb.WireMessage.
func (m StoreOPRArgs) AppendWire(b []byte) []byte {
	return opr.AppendWirePtr(b, m.OPR)
}

// DecodeWire reads what AppendWire writes.
func (m *StoreOPRArgs) DecodeWire(r *wire.Reader) {
	m.OPR = opr.DecodeWirePtr(r, m.OPR)
}

// AppendWire implements orb.WireMessage.
func (m RetrieveOPRArgs) AppendWire(b []byte) []byte {
	return m.Object.AppendWire(b)
}

// DecodeWire reads what AppendWire writes.
func (m *RetrieveOPRArgs) DecodeWire(r *wire.Reader) {
	m.Object.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m RetrieveOPRReply) AppendWire(b []byte) []byte {
	return opr.AppendWirePtr(b, m.OPR)
}

// DecodeWire reads what AppendWire writes.
func (m *RetrieveOPRReply) DecodeWire(r *wire.Reader) {
	m.OPR = opr.DecodeWirePtr(r, m.OPR)
}

// AppendWire implements orb.WireMessage.
func (m DeleteOPRArgs) AppendWire(b []byte) []byte {
	return m.Object.AppendWire(b)
}

// DecodeWire reads what AppendWire writes.
func (m *DeleteOPRArgs) DecodeWire(r *wire.Reader) {
	m.Object.DecodeWire(r)
}

// --- Collection messages ---

// AppendWire implements orb.WireMessage.
func (m JoinArgs) AppendWire(b []byte) []byte {
	b = m.Joiner.AppendWire(b)
	b = attr.AppendWirePairs(b, m.Attrs)
	return wire.AppendString(b, m.Credential)
}

// DecodeWire reads what AppendWire writes.
func (m *JoinArgs) DecodeWire(r *wire.Reader) {
	m.Joiner.DecodeWire(r)
	m.Attrs = attr.DecodeWirePairs(r, m.Attrs)
	m.Credential = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m LeaveArgs) AppendWire(b []byte) []byte {
	b = m.Leaver.AppendWire(b)
	return wire.AppendString(b, m.Credential)
}

// DecodeWire reads what AppendWire writes.
func (m *LeaveArgs) DecodeWire(r *wire.Reader) {
	m.Leaver.DecodeWire(r)
	m.Credential = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m UpdateArgs) AppendWire(b []byte) []byte {
	b = m.Member.AppendWire(b)
	b = attr.AppendWirePairs(b, m.Attrs)
	return wire.AppendString(b, m.Credential)
}

// DecodeWire reads what AppendWire writes.
func (m *UpdateArgs) DecodeWire(r *wire.Reader) {
	m.Member.DecodeWire(r)
	m.Attrs = attr.DecodeWirePairs(r, m.Attrs)
	m.Credential = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m BatchEntry) AppendWire(b []byte) []byte {
	b = m.Member.AppendWire(b)
	b = attr.AppendWirePairs(b, m.Attrs)
	return wire.AppendBool(b, m.UpdateOnly)
}

// DecodeWire reads what AppendWire writes.
func (m *BatchEntry) DecodeWire(r *wire.Reader) {
	m.Member.DecodeWire(r)
	m.Attrs = attr.DecodeWirePairs(r, m.Attrs)
	m.UpdateOnly = r.Bool()
}

// AppendWire implements orb.WireMessage.
func (m BatchUpdateArgs) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Entries)))
	for i := range m.Entries {
		b = m.Entries[i].AppendWire(b)
	}
	return wire.AppendString(b, m.Credential)
}

// DecodeWire reads what AppendWire writes.
func (m *BatchUpdateArgs) DecodeWire(r *wire.Reader) {
	n := r.Len()
	if n > 0 {
		if cap(m.Entries) >= n {
			m.Entries = m.Entries[:n]
		} else {
			m.Entries = make([]BatchEntry, n)
		}
		for i := range m.Entries {
			m.Entries[i].DecodeWire(r)
		}
	} else {
		m.Entries = nil
	}
	m.Credential = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m BatchUpdateReply) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(m.Applied))
	return wire.AppendVarint(b, int64(m.Dropped))
}

// DecodeWire reads what AppendWire writes.
func (m *BatchUpdateReply) DecodeWire(r *wire.Reader) {
	m.Applied = int(r.Varint())
	m.Dropped = int(r.Varint())
}

// AppendWire implements orb.WireMessage.
func (m QueryArgs) AppendWire(b []byte) []byte {
	return wire.AppendString(b, m.Query)
}

// DecodeWire reads what AppendWire writes.
func (m *QueryArgs) DecodeWire(r *wire.Reader) {
	m.Query = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m CollectionRecord) AppendWire(b []byte) []byte {
	b = m.Member.AppendWire(b)
	b = attr.AppendWirePairs(b, m.Attrs)
	return wire.AppendTime(b, m.UpdatedAt)
}

// DecodeWire reads what AppendWire writes.
func (m *CollectionRecord) DecodeWire(r *wire.Reader) {
	m.Member.DecodeWire(r)
	m.Attrs = attr.DecodeWirePairs(r, m.Attrs)
	m.UpdatedAt = r.Time()
}

// AppendWire implements orb.WireMessage.
func (m QueryReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Records)))
	for i := range m.Records {
		b = m.Records[i].AppendWire(b)
	}
	return wire.AppendVarint(b, int64(m.SkippedShards))
}

// DecodeWire reads what AppendWire writes.
func (m *QueryReply) DecodeWire(r *wire.Reader) {
	n := r.Len()
	if n > 0 {
		if cap(m.Records) >= n {
			m.Records = m.Records[:n]
		} else {
			m.Records = make([]CollectionRecord, n)
		}
		for i := range m.Records {
			m.Records[i].DecodeWire(r)
		}
	} else {
		m.Records = nil
	}
	m.SkippedShards = int(r.Varint())
}

// --- Class object messages ---

// AppendWire implements orb.WireMessage.
func (m Placement) AppendWire(b []byte) []byte {
	b = m.Host.AppendWire(b)
	b = m.Vault.AppendWire(b)
	return m.Token.AppendWire(b)
}

// DecodeWire reads what AppendWire writes.
func (m *Placement) DecodeWire(r *wire.Reader) {
	m.Host.DecodeWire(r)
	m.Vault.DecodeWire(r)
	m.Token.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m CreateInstanceArgs) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(m.Count))
	if m.Placement == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = m.Placement.AppendWire(b)
	}
	return opr.AppendWirePtr(b, m.State)
}

// DecodeWire reads what AppendWire writes.
func (m *CreateInstanceArgs) DecodeWire(r *wire.Reader) {
	m.Count = int(r.Varint())
	if r.Bool() {
		p := m.Placement
		if p == nil {
			p = new(Placement)
		}
		p.DecodeWire(r)
		m.Placement = p
	} else {
		m.Placement = nil
	}
	m.State = opr.DecodeWirePtr(r, m.State)
}

// AppendWire implements orb.WireMessage.
func (m CreateInstanceReply) AppendWire(b []byte) []byte {
	b = loid.AppendWireSlice(b, m.Instances)
	b = m.Host.AppendWire(b)
	return m.Vault.AppendWire(b)
}

// DecodeWire reads what AppendWire writes.
func (m *CreateInstanceReply) DecodeWire(r *wire.Reader) {
	m.Instances = loid.DecodeWireSlice(r, m.Instances)
	m.Host.DecodeWire(r)
	m.Vault.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m Implementation) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.Arch)
	b = wire.AppendString(b, m.OS)
	return wire.AppendVarint(b, int64(m.MemoryMB))
}

// DecodeWire reads what AppendWire writes.
func (m *Implementation) DecodeWire(r *wire.Reader) {
	m.Arch = r.Sym()
	m.OS = r.Sym()
	m.MemoryMB = int(r.Varint())
}

// AppendWire implements orb.WireMessage.
func (m ImplementationsReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Impls)))
	for i := range m.Impls {
		b = m.Impls[i].AppendWire(b)
	}
	return b
}

// DecodeWire reads what AppendWire writes.
func (m *ImplementationsReply) DecodeWire(r *wire.Reader) {
	n := r.Len()
	if n == 0 {
		m.Impls = nil
		return
	}
	if cap(m.Impls) >= n {
		m.Impls = m.Impls[:n]
	} else {
		m.Impls = make([]Implementation, n)
	}
	for i := range m.Impls {
		m.Impls[i].DecodeWire(r)
	}
}

// AppendWire implements orb.WireMessage.
func (m InstancesReply) AppendWire(b []byte) []byte {
	return loid.AppendWireSlice(b, m.Instances)
}

// DecodeWire reads what AppendWire writes.
func (m *InstancesReply) DecodeWire(r *wire.Reader) {
	m.Instances = loid.DecodeWireSlice(r, m.Instances)
}

// --- Enactor messages ---

// AppendWire implements orb.WireMessage.
func (m MakeReservationsArgs) AppendWire(b []byte) []byte {
	b = m.Request.AppendWire(b)
	return wire.AppendString(b, m.RequesterDomain)
}

// DecodeWire reads what AppendWire writes.
func (m *MakeReservationsArgs) DecodeWire(r *wire.Reader) {
	m.Request.DecodeWire(r)
	m.RequesterDomain = r.Sym()
}

// AppendWire implements orb.WireMessage.
func (m FeedbackReply) AppendWire(b []byte) []byte {
	return m.Feedback.AppendWire(b)
}

// DecodeWire reads what AppendWire writes.
func (m *FeedbackReply) DecodeWire(r *wire.Reader) {
	m.Feedback.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m EnactScheduleArgs) AppendWire(b []byte) []byte {
	return wire.AppendUvarint(b, m.RequestID)
}

// DecodeWire reads what AppendWire writes.
func (m *EnactScheduleArgs) DecodeWire(r *wire.Reader) {
	m.RequestID = r.Uvarint()
}

// AppendWire implements orb.WireMessage.
func (m EnactReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Instances)))
	for i := range m.Instances {
		b = loid.AppendWireSlice(b, m.Instances[i])
	}
	b = wire.AppendBool(b, m.Success)
	return wire.AppendString(b, m.Detail)
}

// DecodeWire reads what AppendWire writes.
func (m *EnactReply) DecodeWire(r *wire.Reader) {
	n := r.Len()
	if n > 0 {
		if cap(m.Instances) >= n {
			m.Instances = m.Instances[:n]
		} else {
			m.Instances = make([][]loid.LOID, n)
		}
		for i := range m.Instances {
			m.Instances[i] = loid.DecodeWireSlice(r, m.Instances[i])
		}
	} else {
		m.Instances = nil
	}
	m.Success = r.Bool()
	m.Detail = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m CancelReservationsArgs) AppendWire(b []byte) []byte {
	return wire.AppendUvarint(b, m.RequestID)
}

// DecodeWire reads what AppendWire writes.
func (m *CancelReservationsArgs) DecodeWire(r *wire.Reader) {
	m.RequestID = r.Uvarint()
}

// AppendWire implements orb.WireMessage.
func (m Ack) AppendWire(b []byte) []byte { return b }

// DecodeWire reads what AppendWire writes.
func (m *Ack) DecodeWire(r *wire.Reader) {}

// AppendWire implements orb.WireMessage. The Classes map is encoded in
// sorted key order so equal maps produce identical bytes (the virtual-
// trace differential depends on deterministic encodings).
func (m ServicesReply) AppendWire(b []byte) []byte {
	b = m.Collection.AppendWire(b)
	b = m.Enactor.AppendWire(b)
	b = m.Monitor.AppendWire(b)
	b = wire.AppendUvarint(b, uint64(len(m.Classes)))
	if len(m.Classes) > 0 {
		keys := make([]string, 0, len(m.Classes))
		for k := range m.Classes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = wire.AppendString(b, k)
			b = m.Classes[k].AppendWire(b)
		}
	}
	b = loid.AppendWireSlice(b, m.Hosts)
	return loid.AppendWireSlice(b, m.Vaults)
}

// DecodeWire reads what AppendWire writes.
func (m *ServicesReply) DecodeWire(r *wire.Reader) {
	m.Collection.DecodeWire(r)
	m.Enactor.DecodeWire(r)
	m.Monitor.DecodeWire(r)
	n := r.Len()
	if n > 0 {
		m.Classes = make(map[string]loid.LOID, n)
		for i := 0; i < n; i++ {
			k := r.Sym()
			var l loid.LOID
			l.DecodeWire(r)
			if r.Err != nil {
				return
			}
			m.Classes[k] = l
		}
	} else {
		m.Classes = nil
	}
	m.Hosts = loid.DecodeWireSlice(r, m.Hosts)
	m.Vaults = loid.DecodeWireSlice(r, m.Vaults)
}
