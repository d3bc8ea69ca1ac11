package vault

import (
	"context"
	"errors"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/proto"
)

func newRT() *orb.Runtime { return orb.NewRuntime("uva") }

func mkOPR(t *testing.T, obj loid.LOID, version uint64, payload string) *opr.OPR {
	t.Helper()
	o, err := opr.New(obj, version, time.Unix(1e9, 0), []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

var objA = loid.LOID{Domain: "uva", Class: "Worker", Instance: 1}

func TestStoreRetrieveDelete(t *testing.T) {
	v := New(newRT(), Config{Zone: "z1"})
	o := mkOPR(t, objA, 1, "state-v1")
	if err := v.Store(o); err != nil {
		t.Fatal(err)
	}
	got, err := v.Retrieve(objA)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := got.State(); err != nil || string(s) != "state-v1" {
		t.Errorf("state %q, %v", s, err)
	}
	if len(v.oprs) != 1 || v.used != int64(o.Size()) {
		t.Errorf("%d OPRs, used=%d", len(v.oprs), v.used)
	}
	if err := v.Delete(objA); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Retrieve(objA); !errors.Is(err, ErrNotFound) {
		t.Errorf("after delete: %v", err)
	}
	if v.used != 0 {
		t.Errorf("used after delete = %d", v.used)
	}
	if err := v.Delete(objA); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestVersioning(t *testing.T) {
	v := New(newRT(), Config{})
	if err := v.Store(mkOPR(t, objA, 2, "v2")); err != nil {
		t.Fatal(err)
	}
	// Newer version replaces.
	if err := v.Store(mkOPR(t, objA, 3, "v3")); err != nil {
		t.Fatal(err)
	}
	got, _ := v.Retrieve(objA)
	if got.Version != 3 {
		t.Errorf("Version = %d", got.Version)
	}
	// Older version refused.
	if err := v.Store(mkOPR(t, objA, 1, "v1")); !errors.Is(err, ErrStale) {
		t.Errorf("stale store: %v", err)
	}
	// Same version allowed (idempotent re-store).
	if err := v.Store(mkOPR(t, objA, 3, "v3b")); err != nil {
		t.Errorf("same-version store: %v", err)
	}
}

func TestCapacityEnforcement(t *testing.T) {
	small := mkOPR(t, objA, 1, "x")
	v := New(newRT(), Config{CapacityBytes: int64(small.Size()) + 2})
	if err := v.Store(small); err != nil {
		t.Fatal(err)
	}
	big := mkOPR(t, loid.LOID{Domain: "uva", Class: "W", Instance: 2}, 1,
		"a much larger state payload that will not fit")
	if err := v.Store(big); !errors.Is(err, ErrNoSpace) {
		t.Errorf("over-capacity store: %v", err)
	}
	// Replacing the existing object with a same-size version fits.
	if err := v.Store(mkOPR(t, objA, 2, "y")); err != nil {
		t.Errorf("replacement store: %v", err)
	}
}

func TestRefusesCorruptOPR(t *testing.T) {
	v := New(newRT(), Config{})
	o := mkOPR(t, objA, 1, "good")
	o.Payload[0] ^= 0xff
	if err := v.Store(o); !errors.Is(err, opr.ErrCorrupt) {
		t.Errorf("corrupt store: %v", err)
	}
	if err := v.Store(nil); err == nil {
		t.Error("nil OPR accepted")
	}
}

func TestRetrieveReturnsCopy(t *testing.T) {
	v := New(newRT(), Config{})
	v.Store(mkOPR(t, objA, 1, "orig"))
	got, _ := v.Retrieve(objA)
	got.Payload[0] ^= 0xff
	again, _ := v.Retrieve(objA)
	if err := again.Verify(); err != nil {
		t.Error("caller mutation corrupted stored OPR")
	}
}

func TestZoneCompatibility(t *testing.T) {
	rt := newRT()
	v1 := New(rt, Config{Zone: "z1"})
	star := New(rt, Config{}) // defaults to "*"
	if !v1.CompatibleWithZone("z1") || v1.CompatibleWithZone("z2") {
		t.Error("zone match logic")
	}
	if !star.CompatibleWithZone("anything") {
		t.Error("wildcard zone")
	}
	if v1.Zone() != "z1" || star.Zone() != "*" {
		t.Error("Zone()")
	}
}

func TestAttributesExported(t *testing.T) {
	v := New(newRT(), Config{Zone: "z1", CapacityBytes: 100, CostPerByte: 0.5, SecurityPolicy: "public"})
	m := map[string]bool{}
	for _, p := range v.Attributes() {
		m[p.Name] = true
	}
	for _, want := range []string{"vault_zone", "vault_capacity_bytes", "vault_used_bytes",
		"vault_cost_per_byte", "vault_security_policy", "vault_domain"} {
		if !m[want] {
			t.Errorf("attribute %s missing", want)
		}
	}
}

func TestOrbProtocol(t *testing.T) {
	rt := newRT()
	v := New(rt, Config{Zone: "z1"})
	ctx := context.Background()

	o := mkOPR(t, objA, 1, "over-the-wire")
	if _, err := rt.Call(ctx, v.LOID(), proto.MethodStoreOPR, proto.StoreOPRArgs{OPR: o}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Call(ctx, v.LOID(), proto.MethodRetrieveOPR, proto.RetrieveOPRArgs{Object: objA})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := res.(proto.RetrieveOPRReply).OPR.State(); err != nil || string(s) != "over-the-wire" {
		t.Errorf("retrieved %q, %v", s, err)
	}

	res, err = rt.Call(ctx, v.LOID(), proto.MethodVaultOK, proto.VaultOKArgs{Vault: v.LOID()})
	if err != nil || !res.(proto.BoolReply).OK {
		t.Errorf("VaultOK: %v %v", res, err)
	}
	res, err = rt.Call(ctx, v.LOID(), proto.MethodVaultOK, proto.VaultOKArgs{Zone: "z1"})
	if err != nil || !res.(proto.BoolReply).OK {
		t.Errorf("VaultOK zone probe: %v %v", res, err)
	}
	res, err = rt.Call(ctx, v.LOID(), proto.MethodVaultOK, proto.VaultOKArgs{Zone: "z9"})
	if err != nil || res.(proto.BoolReply).OK {
		t.Errorf("VaultOK wrong zone: %v %v", res, err)
	}

	res, err = rt.Call(ctx, v.LOID(), proto.MethodGetAttributes, nil)
	if err != nil || len(res.(proto.AttributesReply).Attrs) == 0 {
		t.Errorf("GetAttributes: %v %v", res, err)
	}

	if _, err := rt.Call(ctx, v.LOID(), proto.MethodDeleteOPR, proto.DeleteOPRArgs{Object: objA}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call(ctx, v.LOID(), proto.MethodRetrieveOPR, proto.RetrieveOPRArgs{Object: objA}); err == nil {
		t.Error("retrieve after delete succeeded")
	}

	// Type confusion errors.
	if _, err := rt.Call(ctx, v.LOID(), proto.MethodStoreOPR, 42); err == nil {
		t.Error("bad arg type accepted")
	}
}

func TestOrbProtocolOverTCP(t *testing.T) {
	server := orb.NewRuntime("uva")
	defer server.Close()
	v := New(server, Config{Zone: "z1"})
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := orb.NewRuntime("sdsc")
	defer client.Close()
	client.Bind(v.LOID(), addr)
	ctx := context.Background()

	o := mkOPR(t, objA, 1, "tcp-state")
	if _, err := client.Call(ctx, v.LOID(), proto.MethodStoreOPR, proto.StoreOPRArgs{OPR: o}); err != nil {
		t.Fatal(err)
	}
	res, err := client.Call(ctx, v.LOID(), proto.MethodRetrieveOPR, proto.RetrieveOPRArgs{Object: objA})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := res.(proto.RetrieveOPRReply).OPR.State(); err != nil || string(s) != "tcp-state" {
		t.Errorf("retrieved %q, %v", s, err)
	}
}

// TestNotFoundError: a missing OPR is still ErrNotFound with the object
// named after it, in process and — as text, which is all the wire
// carries of an error — at a remote caller.
func TestNotFoundError(t *testing.T) {
	server := orb.NewRuntime("uva")
	defer server.Close()
	v := New(server, Config{})
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := orb.NewRuntime("sdsc")
	defer client.Close()
	client.Bind(v.LOID(), addr)

	const want = "vault: no OPR for object: legion:uva/Worker/1"
	_, rerr := v.Retrieve(objA)
	for name, err := range map[string]error{"Delete": v.Delete(objA), "Retrieve": rerr} {
		if !errors.Is(err, ErrNotFound) || err.Error() != want {
			t.Errorf("%s: %v (is ErrNotFound: %v), want %q", name, err, errors.Is(err, ErrNotFound), want)
		}
	}
	ctx := context.Background()
	for name, call := range map[string]func(*orb.Runtime) error{
		proto.MethodDeleteOPR: func(rt *orb.Runtime) error {
			_, err := rt.Call(ctx, v.LOID(), proto.MethodDeleteOPR, proto.DeleteOPRArgs{Object: objA})
			return err
		},
		proto.MethodRetrieveOPR: func(rt *orb.Runtime) error {
			_, err := rt.Call(ctx, v.LOID(), proto.MethodRetrieveOPR, proto.RetrieveOPRArgs{Object: objA})
			return err
		},
	} {
		if err := call(server); !errors.Is(err, ErrNotFound) || err.Error() != want {
			t.Errorf("%s in process: %v, want %q", name, err, want)
		}
		if err := call(client); err == nil || err.Error() != want {
			t.Errorf("%s over TCP: %v, want %q", name, err, want)
		}
	}
}

// TestVaultOKVerifiesIdentityAndZone is the ISSUE 5 regression: the
// vault_OK handler used to answer OK for ANY well-formed VaultOKArgs —
// a probe naming a different vault (misrouted call, stale LOID) was
// confirmed anyway. The vault must vouch only for itself, and when the
// probe carries a host zone it must also verify zone compatibility.
func TestVaultOKVerifiesIdentityAndZone(t *testing.T) {
	rt := newRT()
	v := New(rt, Config{Zone: "z1"})
	other := New(rt, Config{Zone: "z1"}) // a different vault LOID
	ctx := context.Background()

	// Naming this vault: OK.
	res, err := rt.Call(ctx, v.LOID(), proto.MethodVaultOK, proto.VaultOKArgs{Vault: v.LOID()})
	if err != nil || !res.(proto.BoolReply).OK {
		t.Errorf("self probe: %v %v", res, err)
	}
	// Naming a DIFFERENT vault: must be refused.
	res, err = rt.Call(ctx, v.LOID(), proto.MethodVaultOK, proto.VaultOKArgs{Vault: other.LOID()})
	if err != nil || res.(proto.BoolReply).OK {
		t.Errorf("probe naming another vault confirmed: %v %v", res, err)
	}
	// Identity plus compatible zone: OK.
	res, err = rt.Call(ctx, v.LOID(), proto.MethodVaultOK, proto.VaultOKArgs{Vault: v.LOID(), Zone: "z1"})
	if err != nil || !res.(proto.BoolReply).OK {
		t.Errorf("self probe with zone: %v %v", res, err)
	}
	// Identity but incompatible zone: refused.
	res, err = rt.Call(ctx, v.LOID(), proto.MethodVaultOK, proto.VaultOKArgs{Vault: v.LOID(), Zone: "z9"})
	if err != nil || res.(proto.BoolReply).OK {
		t.Errorf("incompatible zone confirmed: %v %v", res, err)
	}
	// Wildcard-zone vaults accept any zone.
	w := New(rt, Config{Zone: "*"})
	res, err = rt.Call(ctx, w.LOID(), proto.MethodVaultOK, proto.VaultOKArgs{Vault: w.LOID(), Zone: "z9"})
	if err != nil || !res.(proto.BoolReply).OK {
		t.Errorf("wildcard vault refused zone: %v %v", res, err)
	}
}
