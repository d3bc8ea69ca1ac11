package scheduler

import (
	"context"
	"strings"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/orb"
	"legion/internal/proto"
)

// skewed registers an object that answers method with a bare string —
// what a version-skewed or misbehaving remote peer looks like to the
// scheduler: a registered wire type, just not the one the caller expects.
func skewed(rt *orb.Runtime, class string, methods ...string) *orb.ServiceObject {
	obj := orb.NewServiceObject(rt.Mint(class))
	for _, m := range methods {
		obj.Handle(m, func(ctx context.Context, arg any) (any, error) { return "not the reply you wanted", nil })
	}
	rt.Register(obj)
	return obj
}

// TestWrapperSurvivesSkewedEnactor: an Enactor answering
// make_reservations (or enact_schedule) with another type must cost the
// Wrapper an attempt and surface "unexpected reply", not panic the
// scheduler process on an unchecked type assertion.
func TestWrapperSurvivesSkewedEnactor(t *testing.T) {
	e := newTenv(t, []hostSpec{{arch: "x86", os: "Linux"}})
	ctx := context.Background()

	fake := skewed(e.rt, "Enactor", proto.MethodMakeReservations)
	out, err := Wrapper{}.Run(ctx, e.env, fake.LOID(), Random{}, e.req(1))
	if err == nil || out.Success || !strings.Contains(err.Error(), "unexpected reply string") {
		t.Fatalf("skewed make_reservations: out %+v, err %v", out, err)
	}

	// Reservations succeed at the real Enactor; only enact_schedule is
	// answered by the skewed peer.
	half := orb.NewServiceObject(e.rt.Mint("Enactor"))
	half.Handle(proto.MethodMakeReservations, func(ctx context.Context, arg any) (any, error) {
		return e.rt.Call(ctx, e.enactor.LOID(), proto.MethodMakeReservations, arg)
	})
	half.Handle(proto.MethodEnactSchedule, func(ctx context.Context, arg any) (any, error) { return "nope", nil })
	half.Handle(proto.MethodCancelReservations, func(ctx context.Context, arg any) (any, error) {
		return e.rt.Call(ctx, e.enactor.LOID(), proto.MethodCancelReservations, arg)
	})
	e.rt.Register(half)
	out, err = Wrapper{}.Run(ctx, e.env, half.LOID(), Random{}, e.req(1))
	if err == nil || out.Success || !strings.Contains(err.Error(), "unexpected reply string") {
		t.Fatalf("skewed enact_schedule: out %+v, err %v", out, err)
	}
}

// TestParamSpaceSurvivesSkewedHost: a Host answering make_reservation
// with another type is skipped like any refusing host; the study lands
// on the next candidate instead of panicking.
func TestParamSpaceSurvivesSkewedHost(t *testing.T) {
	e := newTenv(t, []hostSpec{{arch: "x86", os: "Linux", load: 0.5}})
	fake := skewed(e.rt, "Host", proto.MethodMakeReservation)
	// The skewed host advertises the lowest load, so negotiate tries it first.
	if err := e.coll.Join(fake.LOID(), []attr.Pair{
		{Name: "host_arch", Value: attr.String("x86")},
		{Name: "host_os_name", Value: attr.String("Linux")},
		{Name: "host_load", Value: attr.Float(0)},
		{Name: "host_vaults", Value: attr.Strings(e.vaults[0].LOID().String())},
	}, ""); err != nil {
		t.Fatal(err)
	}
	res, err := ParamSpace{Slots: 1}.Run(context.Background(), e.env, e.class, 3, nil)
	if err != nil || res.Started != 3 {
		t.Fatalf("study: %+v, %v", res, err)
	}

	// With only the skewed host left, the pool cannot fill — an error, not a panic.
	e.coll.Leave(e.hosts[0].LOID(), "")
	_, err = ParamSpace{Slots: 1}.Run(context.Background(), e.env, e.class, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "unexpected reply string") {
		t.Fatalf("skewed-only fleet: err %v", err)
	}
}

// TestParamSpaceLeavesCachedViewInLOIDOrder regresses negotiate sorting
// the HostCache's shared usable view in place: with loads 0.9/0.5/0.1 a
// one-slot study used to hand every later placement in the TTL window a
// view reordered to Host/5, Host/4, Host/3 — breaking Random's LOID base
// order (and with it seed determinism) and racing concurrent readers.
func TestParamSpaceLeavesCachedViewInLOIDOrder(t *testing.T) {
	e := newTenv(t, []hostSpec{
		{arch: "x86", os: "Linux", load: 0.9},
		{arch: "x86", os: "Linux", load: 0.5},
		{arch: "x86", os: "Linux", load: 0.1},
	})
	e.env.Cache = NewHostCache(nil, time.Hour)
	ctx := context.Background()
	// An earlier placement warmed the cache: the study reads a shared view.
	if _, err := candidates(ctx, e.env, e.class.LOID()); err != nil {
		t.Fatal(err)
	}
	res, err := ParamSpace{Slots: 1}.Run(ctx, e.env, e.class, 1, nil)
	if err != nil || res.Started != 1 {
		t.Fatalf("study: %+v, %v", res, err)
	}
	view, err := candidates(ctx, e.env, e.class.LOID())
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range view {
		if h.LOID != e.hosts[i].LOID() {
			t.Fatalf("cached view[%d] = %v, want %v (LOID order)", i, h.LOID, e.hosts[i].LOID())
		}
	}
}
