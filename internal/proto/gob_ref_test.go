package proto

import (
	"bytes"
	"encoding/gob"
)

// Gob is the reference implementation the wire codec is held to: the
// differential fuzzer and the fixture tests require a message's binary
// round trip to equal its gob round trip. Gob carried these messages
// between runtimes before the binary codec replaced it, so the
// comparison pins the decoded shapes (nil-vs-empty slices, pointer
// flattening, time zones) callers were written against.

func init() {
	for _, v := range []any{
		MakeReservationArgs{}, MakeReservationReply{}, TokenArgs{},
		StartObjectArgs{}, StartObjectReply{}, ObjectArgs{}, DeactivateReply{},
		CompatibleVaultsReply{}, VaultOKArgs{}, BoolReply{}, AttributesReply{},
		DefineTriggerArgs{}, RegisterOutcallArgs{}, NotifyArgs{},
		StoreOPRArgs{}, RetrieveOPRArgs{}, RetrieveOPRReply{}, DeleteOPRArgs{},
		JoinArgs{}, LeaveArgs{}, UpdateArgs{}, QueryArgs{}, QueryReply{},
		CollectionRecord{}, BatchEntry{}, BatchUpdateArgs{}, BatchUpdateReply{},
		CreateInstanceArgs{}, CreateInstanceReply{}, ImplementationsReply{},
		InstancesReply{}, Placement{}, Implementation{},
		MakeReservationsArgs{}, FeedbackReply{}, EnactScheduleArgs{},
		EnactReply{}, CancelReservationsArgs{}, Ack{}, ServicesReply{},
		AccountArgs{}, AccountDepositArgs{}, AccountReply{},
	} {
		gob.Register(v)
	}
}

// gobRoundTrip carries v through gob in an `any` slot, the way the gob
// transport's request and response structs held it.
func gobRoundTrip(v any) (any, error) {
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(struct{ V any }{v}); err != nil {
		return nil, err
	}
	var p struct{ V any }
	if err := gob.NewDecoder(&blob).Decode(&p); err != nil {
		return nil, err
	}
	return p.V, nil
}
