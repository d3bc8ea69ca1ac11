package proto

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/reservation"
	"legion/internal/sched"
)

// roundTrip carries a value through the wire codec, catching both
// unregistered types and fields the encoding drops.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	b, err := orb.EncodePayloadBytes(v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	out, err := orb.DecodePayloadBytes(b)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return out
}

func TestAllMessageTypesCrossTheWire(t *testing.T) {
	hostL := loid.LOID{Domain: "uva", Class: "Host", Instance: 1}
	vaultL := loid.LOID{Domain: "uva", Class: "Vault", Instance: 2}
	classL := loid.LOID{Domain: "uva", Class: "WorkerClass", Instance: 3}
	instL := loid.LOID{Domain: "uva", Class: "Worker", Instance: 4}
	tok := reservation.Token{ID: 9, Host: hostL, Vault: vaultL,
		Type: reservation.ReusableTimesharing, Start: time.Unix(1e9, 0).UTC(),
		Duration: time.Hour, MAC: []byte{1, 2, 3}}
	o, err := opr.New(instL, 2, time.Unix(1e9, 0), []byte("state"))
	if err != nil {
		t.Fatal(err)
	}
	attrs := []attr.Pair{{Name: "host_load", Value: attr.Float(0.5)}}

	var master sched.Master
	master.Mappings = []sched.Mapping{{Class: classL, Host: hostL, Vault: vaultL}}
	var variant sched.Variant
	variant.AddReplacement(0, sched.Mapping{Class: classL, Host: hostL, Vault: vaultL})
	master.Variants = []sched.Variant{variant}
	master.KofN = []sched.KofN{{Class: classL, K: 1,
		Alternatives: []sched.HostVault{{Host: hostL, Vault: vaultL}}}}

	msgs := []any{
		MakeReservationArgs{Requester: classL, Vault: vaultL,
			Type: reservation.OneShotSpaceSharing, Duration: time.Hour},
		MakeReservationReply{Token: tok},
		TokenArgs{Token: tok},
		StartObjectArgs{Token: tok, Class: classL, Instances: []loid.LOID{instL}, State: o},
		StartObjectReply{Started: []loid.LOID{instL}},
		ObjectArgs{Object: instL},
		DeactivateReply{OPR: o, Vault: vaultL},
		CompatibleVaultsReply{Vaults: []loid.LOID{vaultL}},
		VaultOKArgs{Vault: vaultL},
		BoolReply{OK: true},
		AttributesReply{Attrs: attrs},
		DefineTriggerArgs{Name: "t", Guard: "$host_load > 0.8"},
		RegisterOutcallArgs{Trigger: "t", Monitor: classL},
		NotifyArgs{Source: hostL, Trigger: "t", Attrs: attrs, Time: time.Unix(1e9, 0).UTC()},
		StoreOPRArgs{OPR: o},
		RetrieveOPRArgs{Object: instL},
		RetrieveOPRReply{OPR: o},
		DeleteOPRArgs{Object: instL},
		JoinArgs{Joiner: hostL, Attrs: attrs, Credential: "c"},
		LeaveArgs{Leaver: hostL, Credential: "c"},
		UpdateArgs{Member: hostL, Attrs: attrs, Credential: "c"},
		QueryArgs{Query: "true"},
		QueryReply{Records: []CollectionRecord{{Member: hostL, Attrs: attrs}}},
		CreateInstanceArgs{Count: 1, Placement: &Placement{Host: hostL, Vault: vaultL, Token: tok}},
		CreateInstanceReply{Instances: []loid.LOID{instL}, Host: hostL, Vault: vaultL},
		ImplementationsReply{Impls: []Implementation{{Arch: "x86", OS: "Linux", MemoryMB: 64}}},
		InstancesReply{Instances: []loid.LOID{instL}},
		MakeReservationsArgs{Request: sched.RequestList{ID: 1, Masters: []sched.Master{master},
			Res: sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour}}},
		FeedbackReply{Feedback: sched.Feedback{Success: true, MasterIndex: 0,
			Resolved: master.Mappings}},
		EnactScheduleArgs{RequestID: 1},
		EnactReply{Success: true, Instances: [][]loid.LOID{{instL}}},
		CancelReservationsArgs{RequestID: 1},
		Ack{},
		ServicesReply{Collection: hostL, Enactor: vaultL, Monitor: classL,
			Classes: map[string]loid.LOID{"Worker": classL},
			Hosts:   []loid.LOID{hostL}, Vaults: []loid.LOID{vaultL}},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if got == nil {
			t.Errorf("%T decoded to nil", m)
		}
	}

	// Spot-check deep contents survive.
	got := roundTrip(t, MakeReservationsArgs{Request: sched.RequestList{
		ID: 7, Masters: []sched.Master{master}}}).(MakeReservationsArgs)
	if got.Request.ID != 7 || len(got.Request.Masters) != 1 {
		t.Fatalf("request: %+v", got.Request)
	}
	m0 := got.Request.Masters[0]
	if len(m0.Mappings) != 1 || m0.Mappings[0].Host != hostL {
		t.Errorf("mappings: %+v", m0.Mappings)
	}
	if len(m0.Variants) != 1 || !m0.Variants[0].Covers.Get(0) {
		t.Errorf("variant bitmap lost: %+v", m0.Variants)
	}
	if len(m0.KofN) != 1 || m0.KofN[0].K != 1 {
		t.Errorf("k-of-n lost: %+v", m0.KofN)
	}

	tk := roundTrip(t, TokenArgs{Token: tok}).(TokenArgs)
	if tk.Token.ID != 9 || string(tk.Token.MAC) != string(tok.MAC) ||
		!tk.Token.Start.Equal(tok.Start) {
		t.Errorf("token: %+v", tk.Token)
	}

	op := roundTrip(t, RetrieveOPRReply{OPR: o}).(RetrieveOPRReply)
	if s, err := op.OPR.State(); err != nil || string(s) != "state" {
		t.Errorf("OPR payload: %q %v", s, err)
	}
}

func TestDirectoryLOIDWellKnown(t *testing.T) {
	l := DirectoryLOID("uva")
	if l.Domain != "uva" || l.Class != "Directory" || l.Instance != 1 {
		t.Errorf("DirectoryLOID = %v", l)
	}
	if DirectoryLOID("uva") != DirectoryLOID("uva") {
		t.Error("not stable")
	}
	if DirectoryLOID("uva") == DirectoryLOID("sdsc") {
		t.Error("not domain-distinct")
	}
}

// TestIsOverload: the shed is recognised by identity on this side of the
// wire and by the sentinel's text once a RemoteError has flattened it.
func TestIsOverload(t *testing.T) {
	shed := fmt.Errorf("%w: make_reservations shed (queue full)", ErrOverload)
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("host: no such object"), false},
		{ErrOverload, true},
		{shed, true},
		{&orb.RemoteError{Msg: shed.Error()}, true},
	} {
		if got := IsOverload(tc.err); got != tc.want {
			t.Errorf("IsOverload(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
