package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"legion/internal/attr"
	"legion/internal/classobj"
	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/reservation"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
)

// Fig1CoreObjectTree builds and reports the Figure 1 core object
// hierarchy: LegionClass managing HostClass, VaultClass, and a user
// class, each managing their instances.
func Fig1CoreObjectTree(hosts, extraVaults, workers int) *Table {
	ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 1},
		Hosts: sim.UniformSpecs(hosts, 8), Vaults: 1 + extraVaults}).MS
	defer ms.Close()
	ctx := context.Background()
	class := ms.DefineClass("MyObj", nil)
	placed := 0
	for i := 0; i < workers; i++ {
		if _, _, err := class.CreateInstance(ctx, 1, nil, nil); err != nil {
			break
		}
		placed++
	}
	t := &Table{
		ID:     "F1",
		Title:  "Core object hierarchy (Figure 1)",
		Header: []string{"class object", "managed by", "instances"},
	}
	t.AddRow("LegionClass", "(root)", "HostClass, VaultClass, MyObjClass")
	t.AddRow("HostClass", "LegionClass", len(ms.HostClass.Instances()))
	t.AddRow("VaultClass", "LegionClass", len(ms.VaultClass.Instances()))
	t.AddRow("MyObjClass", "LegionClass", len(class.Instances()))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"MyObjClass placed its %d instances itself (the §2.1 quick placement decision)", placed))
	return t
}

// layeringFn is one Figure 2 layering scheme: place one instance of the
// class and return an error on failure.
type layeringFn func(ctx context.Context, ms *core.Metasystem, class *classobj.Class) error

// runLayeringA — "the application does it all, negotiating directly with
// resources and making placement decisions": no Collection, no Enactor.
// The app interrogates every Host directly, picks the least loaded,
// negotiates its own reservation, and directs create_instance.
func runLayeringA(ctx context.Context, ms *core.Metasystem, class *classobj.Class) error {
	rt := ms.Runtime()
	type candidate struct {
		host  loid.LOID
		vault loid.LOID
		load  float64
	}
	var best *candidate
	for _, l := range ms.HostClass.Instances() {
		res, err := orb.Invoke[proto.AttributesReply, any](ctx, rt, l, proto.MethodGetAttributes, nil)
		if err != nil {
			continue
		}
		v, _ := attr.Lookup(res.Attrs, "host_load")
		load, _ := v.AsFloat()
		vres, err := orb.Invoke[proto.CompatibleVaultsReply, any](ctx, rt, l, proto.MethodGetCompatibleVaults, nil)
		if err != nil {
			continue
		}
		vaults := vres.Vaults
		if len(vaults) == 0 {
			continue
		}
		if best == nil || load < best.load {
			best = &candidate{host: l, vault: vaults[0], load: load}
		}
	}
	if best == nil {
		return errors.New("no host answered")
	}
	res, err := orb.Invoke[proto.MakeReservationReply](ctx, rt, best.host, proto.MethodMakeReservation, proto.MakeReservationArgs{
		Vault: best.vault, Type: reservation.ReusableTimesharing, Duration: time.Hour,
	})
	if err != nil {
		return err
	}
	_, _, err = class.CreateInstance(ctx, 1, &proto.Placement{
		Host: best.host, Vault: best.vault, Token: res.Token,
	}, nil)
	return err
}

// runLayeringB — the application still makes its own placement decision
// but uses the RM services: Collection for information, Enactor for
// negotiation and instantiation.
func runLayeringB(ctx context.Context, ms *core.Metasystem, class *classobj.Class) error {
	env := ms.Env()
	hosts, err := scheduler.QueryHosts(ctx, env, "defined($host_arch)")
	if err != nil {
		return err
	}
	var best *scheduler.HostInfo
	for i := range hosts {
		if len(hosts[i].Vaults) == 0 {
			continue
		}
		if best == nil || hosts[i].Load < best.Load {
			best = &hosts[i]
		}
	}
	if best == nil {
		return errors.New("no usable host in Collection")
	}
	req := sched.RequestList{
		ID: ms.Enactor.NewRequestID(),
		Masters: []sched.Master{{Mappings: []sched.Mapping{{
			Class: class.LOID(), Host: best.LOID, Vault: best.Vaults[0],
		}}}},
		Res: sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	fb := ms.Enactor.MakeReservations(ctx, req)
	if !fb.Success {
		return fmt.Errorf("reservations: %s", fb.Detail)
	}
	reply := ms.Enactor.EnactSchedule(ctx, req.ID)
	if !reply.Success {
		return fmt.Errorf("enact: %s", reply.Detail)
	}
	return nil
}

// runLayeringC — a combined placement+negotiation module (messiahs
// style): Scheduler and Enactor fused, invoked in-process with no orb
// hop between them.
func runLayeringC(ctx context.Context, ms *core.Metasystem, class *classobj.Class) error {
	env := ms.Env()
	rl, err := scheduler.LoadAware{}.Generate(ctx, env, scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 1}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	})
	if err != nil {
		return err
	}
	rl.ID = ms.Enactor.NewRequestID()
	fb := ms.Enactor.MakeReservations(ctx, rl)
	if !fb.Success {
		return fmt.Errorf("reservations: %s", fb.Detail)
	}
	reply := ms.Enactor.EnactSchedule(ctx, rl.ID)
	if !reply.Success {
		return fmt.Errorf("enact: %s", reply.Detail)
	}
	return nil
}

// runLayeringD — fully separated modules: Scheduler -> (orb) -> Enactor
// -> resources, via the Figure 9 Wrapper.
func runLayeringD(ctx context.Context, ms *core.Metasystem, class *classobj.Class) error {
	_, err := ms.PlaceApplication(ctx, scheduler.LoadAware{}, scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 1}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	})
	return err
}

// Fig2Layerings places the same workload through the four resource
// management layering schemes of Figure 2 and reports latency and the
// number of method invocations each scheme makes — the "cost that scales
// with capability" continuum.
func Fig2Layerings(rounds int) *Table {
	if rounds < 1 {
		rounds = 20
	}
	t := &Table{
		ID:     "F2",
		Title:  "Resource management layering schemes (Figure 2)",
		Header: []string{"layering", "mean latency", "orb calls/placement", "placed"},
	}
	ctx := context.Background()
	schemes := []struct {
		name string
		run  layeringFn
	}{
		{"(a) app alone", runLayeringA},
		{"(b) app + RM services", runLayeringB},
		{"(c) combined sched+enactor", runLayeringC},
		{"(d) separate modules", runLayeringD},
	}
	for _, s := range schemes {
		ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 7}, Hosts: sim.UniformSpecs(8, 8)}).MS
		class := ms.DefineClass("Worker", nil)

		var mu sync.Mutex
		var calls int64
		ms.Runtime().SetTracer(func(_ string, _ loid.LOID, _ string, _ time.Duration, _ error) {
			mu.Lock()
			calls++
			mu.Unlock()
		})

		var samples []time.Duration
		ok := 0
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			if err := s.run(ctx, ms, class); err == nil {
				ok++
			}
			samples = append(samples, time.Since(t0))
		}
		mu.Lock()
		perPlacement := float64(calls) / float64(rounds)
		mu.Unlock()
		t.AddRow(s.name, meanDuration(samples), fmt.Sprintf("%.1f", perPlacement), pct(ok, rounds))
		ms.Close()
	}
	t.Notes = append(t.Notes,
		"scheme (a) interrogates every Host per placement; (b)-(d) amortize through the Collection",
		"later schemes trade method invocations for modularity and reuse")
	return t
}

// Fig3PlacementTrace runs one full placement and reports the observed
// method-invocation sequence mapped to the 13 steps of Figure 3.
func Fig3PlacementTrace() *Table {
	ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 11}, Hosts: sim.UniformSpecs(3, 8)}).MS
	defer ms.Close()
	ctx := context.Background()
	class := ms.DefineClass("MyObj", nil)

	type call struct {
		method string
		d      time.Duration
	}
	var mu sync.Mutex
	var calls []call
	ms.Runtime().SetTracer(func(_ string, _ loid.LOID, method string, d time.Duration, _ error) {
		mu.Lock()
		calls = append(calls, call{method, d})
		mu.Unlock()
	})

	t := &Table{
		ID:     "F3",
		Title:  "Placement walkthrough (Figure 3): observed method invocations",
		Header: []string{"fig-3 step(s)", "observed calls", "mean latency"},
	}
	// Steps 2-11 run through the Wrapper.
	if _, err := ms.PlaceApplication(ctx, scheduler.LoadAware{}, scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 2}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}); err != nil {
		t.Notes = append(t.Notes, "placement failed: "+err.Error())
		return t
	}
	// Steps 12-13: Monitor registration, overload outcall, and step 1
	// again via the push updates of reassessment.
	if err := ms.WatchLoad(ctx, 0.8); err != nil {
		t.Notes = append(t.Notes, "watch: "+err.Error())
	}
	ms.Hosts()[0].SetExternalLoad(0.95)
	ms.ReassessAll(ctx)

	mu.Lock()
	defer mu.Unlock()
	groups := map[string][]time.Duration{}
	for _, c := range calls {
		var key string
		switch c.method {
		case proto.MethodUpdateCollectionEntry:
			key = "step 1: resources deposit state in Collection"
		case proto.MethodQueryCollection:
			key = "step 2: Scheduler queries Collection"
		case proto.MethodGetImplementations:
			key = "step 3: Scheduler queries object classes"
		case proto.MethodMakeReservations:
			key = "step 4: schedule passed to Enactor"
		case proto.MethodMakeReservation, proto.MethodVaultOK:
			key = "steps 5-6: Enactor obtains reservations from Hosts/Vaults"
		case proto.MethodEnactSchedule:
			key = "steps 7-8: schedule confirmed, enactment requested"
		case proto.MethodCreateInstance, proto.MethodStartObject:
			key = "steps 9-10: classes instantiate objects on Hosts"
		case proto.MethodDefineTrigger, proto.MethodRegisterOutcall:
			key = "step 12 setup: Monitor registers outcalls"
		case proto.MethodNotify:
			key = "steps 12-13: resource outcall, rescheduling requested"
		default:
			key = "other: " + c.method
		}
		groups[key] = append(groups[key], c.d)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.AddRow(k, len(groups[k]), meanDuration(groups[k]))
	}
	t.Notes = append(t.Notes, "step 11 (feedback to Scheduler) is the make_reservations return value")
	return t
}
