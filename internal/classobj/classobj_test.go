package classobj

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/reservation"
	"legion/internal/vault"
)

type env struct {
	rt    *orb.Runtime
	vault *vault.Vault
	host  *host.Host
}

func newEnv(t *testing.T) *env {
	t.Helper()
	rt := orb.NewRuntime("uva")
	v := vault.New(rt, vault.Config{Zone: "z1"})
	h := host.New(rt, host.Config{
		Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()},
	})
	return &env{rt: rt, vault: v, host: h}
}

// reservePlacement grabs a reservation on the env's host for a directed
// placement.
func (e *env) reservePlacement(t *testing.T) proto.Placement {
	t.Helper()
	res, err := e.rt.Call(context.Background(), e.host.LOID(), proto.MethodMakeReservation,
		proto.MakeReservationArgs{
			Vault: e.vault.LOID(), Type: reservation.ReusableTimesharing, Duration: time.Hour,
		})
	if err != nil {
		t.Fatal(err)
	}
	return proto.Placement{
		Host:  e.host.LOID(),
		Vault: e.vault.LOID(),
		Token: res.(proto.MakeReservationReply).Token,
	}
}

func TestDirectedPlacement(t *testing.T) {
	e := newEnv(t)
	c := New(e.rt, Config{Name: "Worker"})
	p := e.reservePlacement(t)
	insts, place, err := c.CreateInstance(context.Background(), 3, &p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 3 || place.Host != e.host.LOID() {
		t.Fatalf("created %v on %v", insts, place.Host)
	}
	for _, i := range insts {
		if i.Class != "Worker" {
			t.Errorf("instance class %q", i.Class)
		}
		if res, err := e.rt.Call(context.Background(), i, "ping", nil); err != nil || res != "pong" {
			t.Errorf("instance %v not live: %v", i, err)
		}
		hL, vL, err := c.WhereIs(i)
		if err != nil || hL != e.host.LOID() || vL != e.vault.LOID() {
			t.Errorf("WhereIs(%v) = %v %v %v", i, hL, vL, err)
		}
	}
	if got := c.Instances(); len(got) != 3 {
		t.Errorf("Instances = %v", got)
	}
}

func TestQuickPlacement(t *testing.T) {
	e := newEnv(t)
	// The quick placer grabs a reservation itself — "the Class makes a
	// quick placement decision".
	placer := func(ctx context.Context, c *Class, count int) (proto.Placement, error) {
		res, err := e.rt.Call(ctx, e.host.LOID(), proto.MethodMakeReservation,
			proto.MakeReservationArgs{
				Requester: c.LOID(),
				Vault:     e.vault.LOID(), Type: reservation.ReusableTimesharing, Duration: time.Hour,
			})
		if err != nil {
			return proto.Placement{}, err
		}
		return proto.Placement{Host: e.host.LOID(), Vault: e.vault.LOID(),
			Token: res.(proto.MakeReservationReply).Token}, nil
	}
	c := New(e.rt, Config{Name: "Worker"})
	c.SetPlacer(placer)
	insts, _, err := c.CreateInstance(context.Background(), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 1 {
		t.Fatalf("insts = %v", insts)
	}
}

func TestNoPlacerNoPlacement(t *testing.T) {
	e := newEnv(t)
	c := New(e.rt, Config{Name: "Worker"})
	if _, _, err := c.CreateInstance(context.Background(), 1, nil, nil); !errors.Is(err, ErrNoPlacement) {
		t.Errorf("undirected with no placer: %v", err)
	}
}

func TestDirectedPlacementValidation(t *testing.T) {
	e := newEnv(t)
	c := New(e.rt, Config{Name: "Worker", Policy: func(p proto.Placement) error {
		if p.Host.Domain != "uva" {
			return fmt.Errorf("foreign hosts refused")
		}
		return nil
	}})
	// Nil LOIDs rejected.
	bad := proto.Placement{}
	if _, _, err := c.CreateInstance(context.Background(), 1, &bad, nil); !errors.Is(err, ErrNoPlacement) {
		t.Errorf("nil placement: %v", err)
	}
	// Policy refusal.
	foreign := e.reservePlacement(t)
	foreign.Host.Domain = "elsewhere"
	if _, _, err := c.CreateInstance(context.Background(), 1, &foreign, nil); !errors.Is(err, ErrNoPlacement) {
		t.Errorf("policy refusal: %v", err)
	}
	// Valid placement passes policy.
	good := e.reservePlacement(t)
	if _, _, err := c.CreateInstance(context.Background(), 1, &good, nil); err != nil {
		t.Errorf("good placement: %v", err)
	}
}

func TestDirectedPlacementBadToken(t *testing.T) {
	e := newEnv(t)
	c := New(e.rt, Config{Name: "Worker"})
	p := proto.Placement{Host: e.host.LOID(), Vault: e.vault.LOID(),
		Token: reservation.Token{ID: 1, MAC: []byte("forged")}}
	_, _, err := c.CreateInstance(context.Background(), 1, &p, nil)
	if err == nil {
		t.Fatal("forged token accepted")
	}
}

func TestDestroyInstance(t *testing.T) {
	e := newEnv(t)
	c := New(e.rt, Config{Name: "Worker"})
	p := e.reservePlacement(t)
	insts, _, err := c.CreateInstance(context.Background(), 1, &p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DestroyInstance(context.Background(), insts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.Call(context.Background(), insts[0], "ping", nil); !errors.Is(err, orb.ErrNotBound) {
		t.Errorf("destroyed instance answers: %v", err)
	}
	if len(c.Instances()) != 0 {
		t.Error("instance list not empty")
	}
	if err := c.DestroyInstance(context.Background(), insts[0]); !errors.Is(err, ErrUnknownInstance) {
		t.Errorf("double destroy: %v", err)
	}
}

func TestAdoptAndForget(t *testing.T) {
	e := newEnv(t)
	hc := New(e.rt, Config{Name: "Host"})
	hc.AdoptInstance(e.host.LOID(), loid.Nil, loid.Nil)
	if got := hc.Instances(); len(got) != 1 || got[0] != e.host.LOID() {
		t.Errorf("adopted instances: %v", got)
	}
	hc.ForgetInstance(e.host.LOID())
	if len(hc.Instances()) != 0 {
		t.Error("forget failed")
	}
}

func TestOrbProtocol(t *testing.T) {
	e := newEnv(t)
	c := New(e.rt, Config{Name: "Worker", Impls: []proto.Implementation{
		{Arch: "x86", OS: "Linux", MemoryMB: 64},
		{Arch: "sparc", OS: "Solaris", MemoryMB: 96},
	}})
	ctx := context.Background()
	p := e.reservePlacement(t)

	res, err := e.rt.Call(ctx, c.LOID(), proto.MethodCreateInstance,
		proto.CreateInstanceArgs{Count: 2, Placement: &p})
	if err != nil {
		t.Fatal(err)
	}
	reply := res.(proto.CreateInstanceReply)
	if len(reply.Instances) != 2 || reply.Host != e.host.LOID() {
		t.Fatalf("reply = %+v", reply)
	}

	res, err = e.rt.Call(ctx, c.LOID(), proto.MethodGetImplementations, nil)
	if err != nil || len(res.(proto.ImplementationsReply).Impls) != 2 {
		t.Errorf("impls: %v %v", res, err)
	}
	res, err = e.rt.Call(ctx, c.LOID(), proto.MethodListInstances, nil)
	if err != nil || len(res.(proto.InstancesReply).Instances) != 2 {
		t.Errorf("instances: %v %v", res, err)
	}
	if _, err := e.rt.Call(ctx, c.LOID(), proto.MethodDestroyInstance,
		proto.ObjectArgs{Object: reply.Instances[0]}); err != nil {
		t.Errorf("destroy: %v", err)
	}
	// Bad args.
	for _, m := range []string{proto.MethodCreateInstance, proto.MethodDestroyInstance} {
		if _, err := e.rt.Call(ctx, c.LOID(), m, "bogus"); err == nil {
			t.Errorf("%s accepted bad arg", m)
		}
	}
}

func TestMetaAndName(t *testing.T) {
	e := newEnv(t)
	legionClass := New(e.rt, Config{Name: "Legion"})
	c := New(e.rt, Config{Name: "Worker", Meta: legionClass.LOID()})
	if c.name != "Worker" || c.Meta() != legionClass.LOID() {
		t.Errorf("Name/Meta: %v %v", c.name, c.Meta())
	}
	if c.LOID().Class != "WorkerClass" {
		t.Errorf("class LOID: %v", c.LOID())
	}
}

func TestNewPanicsOnEmptyName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New(orb.NewRuntime("uva"), Config{})
}
