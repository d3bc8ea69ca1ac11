// Package integration tests multi-domain metasystems: several
// administrative domains, each its own runtime behind a TCP listener,
// federated the way separate legiond processes would be. This exercises
// the paper's wide-area claims — cross-domain co-allocation by the
// Enactor, site autonomy via local placement policies, and migration
// between domains.
package integration

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/vault"
)

// site is one administrative domain served over TCP.
type site struct {
	ms   *core.Metasystem
	addr string
}

// newSite builds a domain with nHosts hosts and one vault, listening on
// loopback. mutate may adjust each host config (site policy).
func newSite(t *testing.T, domain string, nHosts int, mutate func(h *host.Host)) *site {
	t.Helper()
	ms := core.New(domain, core.Options{Seed: 1})
	v := ms.AddVault(vault.Config{Zone: domain})
	for i := 0; i < nHosts; i++ {
		cfg := host.Config{
			Arch: "x86", OS: "Linux", OSVersion: "2.2",
			CPUs: 4, MemoryMB: 512, Zone: domain,
			Vaults: []loid.LOID{v.LOID()},
		}
		h := ms.AddHost(cfg)
		if mutate != nil {
			mutate(h)
		}
	}
	ms.DefineClass("Worker", nil)
	addr, err := ms.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	return &site{ms: ms, addr: addr}
}

// client is an application-side runtime federated with several sites.
type client struct {
	rt   *orb.Runtime
	dirs map[string]proto.ServicesReply
}

func newClient(t *testing.T, sites ...*site) *client {
	t.Helper()
	rt := orb.NewRuntime("app")
	t.Cleanup(func() { rt.Close() })
	c := &client{rt: rt, dirs: make(map[string]proto.ServicesReply)}
	ctx := context.Background()
	for _, s := range sites {
		rt.BindDomain(s.ms.Domain(), s.addr)
		res, err := rt.Call(ctx, proto.DirectoryLOID(s.ms.Domain()), proto.MethodLookupServices, nil)
		if err != nil {
			t.Fatalf("directory lookup for %s: %v", s.ms.Domain(), err)
		}
		c.dirs[s.ms.Domain()] = res.(proto.ServicesReply)
	}
	return c
}

func TestCrossDomainCoAllocation(t *testing.T) {
	uva := newSite(t, "uva", 2, nil)
	sdsc := newSite(t, "sdsc", 2, nil)
	cl := newClient(t, uva, sdsc)
	ctx := context.Background()

	// The application builds a schedule spanning both domains and runs
	// its own Enactor-equivalent via uva's Enactor — which must
	// negotiate with sdsc's hosts over TCP through its own domain
	// binding. Wire uva's runtime to sdsc first.
	uva.ms.Runtime().BindDomain("sdsc", sdsc.addr)

	uvaDir, sdscDir := cl.dirs["uva"], cl.dirs["sdsc"]
	master := sched.Master{Mappings: []sched.Mapping{
		{Class: uvaDir.Classes["Worker"], Host: uvaDir.Hosts[0], Vault: uvaDir.Vaults[0]},
		{Class: uvaDir.Classes["Worker"], Host: sdscDir.Hosts[0], Vault: sdscDir.Vaults[0]},
	}}
	req := sched.RequestList{
		ID:      777,
		Masters: []sched.Master{master},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	res, err := cl.rt.Call(ctx, uvaDir.Enactor, proto.MethodMakeReservations,
		proto.MakeReservationsArgs{Request: req})
	if err != nil {
		t.Fatal(err)
	}
	fb := res.(proto.FeedbackReply).Feedback
	if !fb.Success {
		t.Fatalf("cross-domain reservations: %+v", fb)
	}
	eres, err := cl.rt.Call(ctx, uvaDir.Enactor, proto.MethodEnactSchedule,
		proto.EnactScheduleArgs{RequestID: 777})
	if err != nil || !eres.(proto.EnactReply).Success {
		t.Fatalf("cross-domain enact: %v %v", eres, err)
	}
	// One object runs in each domain.
	if uva.ms.Hosts()[0].RunningCount() != 1 {
		t.Error("no object on uva host")
	}
	if sdsc.ms.Hosts()[0].RunningCount() != 1 {
		t.Error("no object on sdsc host")
	}
	// The client can invoke both instances across domains. Note: the
	// instances' LOIDs live in the uva domain (the class minted them)
	// but one runs at sdsc; bind it explicitly for this check.
	insts := eres.(proto.EnactReply).Instances
	if r, err := cl.rt.Call(ctx, insts[0][0], "ping", nil); err != nil || r != "pong" {
		t.Errorf("uva instance: %v %v", r, err)
	}
	cl.rt.Bind(insts[1][0], sdsc.addr)
	if r, err := cl.rt.Call(ctx, insts[1][0], "ping", nil); err != nil || r != "pong" {
		t.Errorf("sdsc instance: %v %v", r, err)
	}
}

func TestSiteAutonomyRefusesForeignDomain(t *testing.T) {
	// sdsc's hosts refuse requests from the uva domain — the paper's
	// "domains from which it refuses to accept object instantiation
	// requests".
	uva := newSite(t, "uva", 1, nil)
	sdsc := newSite(t, "sdsc", 1, func(h *host.Host) {
		h.SetPolicy(host.RefuseDomains("uva"))
	})
	cl := newClient(t, uva, sdsc)
	ctx := context.Background()
	sdscDir := cl.dirs["sdsc"]

	// A request from uva's Enactor (domain "uva") is refused...
	uva.ms.Runtime().BindDomain("sdsc", sdsc.addr)
	req := sched.RequestList{
		ID: uva.ms.Enactor.NewRequestID(),
		Masters: []sched.Master{{Mappings: []sched.Mapping{{
			Class: cl.dirs["uva"].Classes["Worker"],
			Host:  sdscDir.Hosts[0],
			Vault: sdscDir.Vaults[0],
		}}}},
		Res: sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	fb := uva.ms.Enactor.MakeReservations(ctx, req)
	if fb.Success {
		t.Fatal("sdsc accepted a uva requester despite policy")
	}
	// ...but sdsc's own Enactor is welcome.
	req2 := sched.RequestList{
		ID: 1,
		Masters: []sched.Master{{Mappings: []sched.Mapping{{
			Class: sdscDir.Classes["Worker"],
			Host:  sdscDir.Hosts[0],
			Vault: sdscDir.Vaults[0],
		}}}},
		Res: sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	res, err := cl.rt.Call(ctx, sdscDir.Enactor, proto.MethodMakeReservations,
		proto.MakeReservationsArgs{Request: req2})
	if err != nil || !res.(proto.FeedbackReply).Feedback.Success {
		t.Fatalf("sdsc's own enactor refused: %v %v", res, err)
	}
}

func TestRemoteSchedulingThroughCollection(t *testing.T) {
	// The client runs a Scheduler locally against a remote Collection
	// and Enactor (layering (d) across process boundaries).
	site1 := newSite(t, "uva", 3, nil)
	cl := newClient(t, site1)
	ctx := context.Background()
	dir := cl.dirs["uva"]

	env := &scheduler.Env{
		RT:         cl.rt,
		Collection: dir.Collection,
		Rand:       rand.New(rand.NewSource(9)),
	}
	out, err := scheduler.Wrapper{}.Run(ctx, env, dir.Enactor, scheduler.IRS{NSched: 3},
		scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: dir.Classes["Worker"], Count: 4}},
			Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
		})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success || len(out.Instances) != 4 {
		t.Fatalf("outcome: %+v", out)
	}
	total := 0
	for _, h := range site1.ms.Hosts() {
		total += h.RunningCount()
	}
	if total != 4 {
		t.Errorf("running: %d", total)
	}
}

func TestFederatedFailureFallsBackToHealthyDomain(t *testing.T) {
	// Two domains; one goes down mid-session. A client schedule listing
	// a dead-domain master first falls through to the healthy domain's
	// master (Figure 5's master-schedule preference list).
	uva := newSite(t, "uva", 1, nil)
	sdsc := newSite(t, "sdsc", 1, nil)
	cl := newClient(t, uva, sdsc)
	ctx := context.Background()
	uvaDir, sdscDir := cl.dirs["uva"], cl.dirs["sdsc"]

	// uva's enactor will negotiate with both domains.
	uva.ms.Runtime().BindDomain("sdsc", sdsc.addr)

	// Kill sdsc.
	sdsc.ms.Close()

	req := sched.RequestList{
		ID: uva.ms.Enactor.NewRequestID(),
		Masters: []sched.Master{
			{Mappings: []sched.Mapping{{
				Class: uvaDir.Classes["Worker"], Host: sdscDir.Hosts[0], Vault: sdscDir.Vaults[0],
			}}},
			{Mappings: []sched.Mapping{{
				Class: uvaDir.Classes["Worker"], Host: uvaDir.Hosts[0], Vault: uvaDir.Vaults[0],
			}}},
		},
		Res: sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	fb := uva.ms.Enactor.MakeReservations(ctx, req)
	if !fb.Success {
		t.Fatalf("feedback: %+v", fb)
	}
	if fb.MasterIndex != 1 {
		t.Errorf("winning master: %d, want 1 (healthy domain)", fb.MasterIndex)
	}
	if fb.Stats.MastersTried != 2 {
		t.Errorf("masters tried: %d", fb.Stats.MastersTried)
	}
}

func TestCrossDomainInvocationLatencyInjection(t *testing.T) {
	// Verify the latency injection hook works across the wire: a client
	// with simulated WAN latency sees slower calls.
	s := newSite(t, "uva", 1, nil)
	cl := newClient(t, s)
	ctx := context.Background()
	dir := cl.dirs["uva"]

	t0 := time.Now()
	if _, err := cl.rt.Call(ctx, dir.Collection, proto.MethodQueryCollection,
		proto.QueryArgs{Query: "true"}); err != nil {
		t.Fatal(err)
	}
	base := time.Since(t0)

	cl.rt.SetLatency(30*time.Millisecond, 0)
	t0 = time.Now()
	if _, err := cl.rt.Call(ctx, dir.Collection, proto.MethodQueryCollection,
		proto.QueryArgs{Query: "true"}); err != nil {
		t.Fatal(err)
	}
	wan := time.Since(t0)
	if wan < 30*time.Millisecond || wan < base {
		t.Errorf("latency injection: base %v, wan %v", base, wan)
	}
	cl.rt.SetLatency(0, 0)
}

func TestDirectoryListsEverything(t *testing.T) {
	s := newSite(t, "uva", 3, nil)
	cl := newClient(t, s)
	dir := cl.dirs["uva"]
	if dir.Collection.IsNil() || dir.Enactor.IsNil() || dir.Monitor.IsNil() {
		t.Errorf("directory: %+v", dir)
	}
	if len(dir.Hosts) != 3 || len(dir.Vaults) != 1 {
		t.Errorf("resources: %d hosts %d vaults", len(dir.Hosts), len(dir.Vaults))
	}
	if _, ok := dir.Classes["Worker"]; !ok {
		t.Errorf("classes: %v", dir.Classes)
	}
}

func TestWideAreaPlacementWithFaultInjection(t *testing.T) {
	// Random message-level faults on the application runtime: the
	// Wrapper's retry protocol must still land a placement.
	s := newSite(t, "uva", 4, nil)
	cl := newClient(t, s)
	ctx := context.Background()
	dir := cl.dirs["uva"]

	var n int
	cl.rt.SetFaultInjector(func(target loid.LOID, method string) error {
		n++
		if n%5 == 0 { // every 5th call fails
			return fmt.Errorf("%w: injected network fault", orb.ErrInjectedFault)
		}
		return nil
	})
	defer cl.rt.SetFaultInjector(nil)

	env := &scheduler.Env{RT: cl.rt, Collection: dir.Collection,
		Rand: rand.New(rand.NewSource(3))}
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		out, err := (scheduler.Wrapper{SchedTryLimit: 4, EnactTryLimit: 2}).Run(
			ctx, env, dir.Enactor, scheduler.Random{},
			scheduler.Request{
				Classes: []scheduler.ClassRequest{{Class: dir.Classes["Worker"], Count: 2}},
				Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
			})
		if err == nil && out.Success {
			return // placed despite faults
		}
		lastErr = err
	}
	if !errors.Is(lastErr, nil) {
		t.Fatalf("never placed under fault injection: %v", lastErr)
	}
}

// TestConcurrentSchedulersConserveCapacity races many application-side
// Schedulers against one metasystem with tight admission. Invariants:
// every successful placement's objects actually run, the per-host
// reservation bound is never exceeded, and after teardown the system
// drains to zero.
func TestConcurrentSchedulersConserveCapacity(t *testing.T) {
	const nHosts, maxShared = 4, 2
	ms := core.New("uva", core.Options{Seed: 99})
	defer ms.Close()
	v := ms.AddVault(vault.Config{Zone: "z1"})
	for i := 0; i < nHosts; i++ {
		ms.AddHost(host.Config{
			Arch: "x86", OS: "Linux", CPUs: 1, MemoryMB: 256, Zone: "z1",
			MaxShared: maxShared, Vaults: []loid.LOID{v.LOID()},
		})
	}
	class := ms.DefineClass("Worker", nil)
	ctx := context.Background()

	var mu sync.Mutex
	placed, failed := 0, 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			env := &scheduler.Env{RT: ms.Runtime(), Collection: ms.Collection.LOID(),
				Rand: rand.New(rand.NewSource(int64(g)))}
			for i := 0; i < 10; i++ {
				out, err := (scheduler.Wrapper{SchedTryLimit: 2, EnactTryLimit: 1}).Run(
					ctx, env, ms.Enactor.LOID(), scheduler.IRS{NSched: 3},
					scheduler.Request{
						Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 3}},
						Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
					})
				if err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
					continue
				}
				mu.Lock()
				placed++
				mu.Unlock()
				// Objects are genuinely running.
				for _, insts := range out.Instances {
					for _, inst := range insts {
						if r, perr := ms.Runtime().Call(ctx, inst, "ping", nil); perr != nil || r != "pong" {
							t.Errorf("placed instance %v dead: %v", inst, perr)
						}
					}
				}
				// Tear down to let others in.
				for i2, insts := range out.Instances {
					for _, inst := range insts {
						_, _ = ms.Runtime().Call(ctx, out.Feedback.Resolved[i2].Class,
							proto.MethodDestroyInstance, proto.ObjectArgs{Object: inst})
					}
				}
				_ = ms.Enactor.CancelReservations(ctx, out.RequestID)
			}
		}(g)
	}
	wg.Wait()
	if placed == 0 {
		t.Fatalf("no placement ever succeeded (failed=%d)", failed)
	}
	// System drains: nothing left running, class manages nothing.
	total := 0
	for _, h := range ms.Hosts() {
		total += h.RunningCount()
	}
	if total != 0 {
		t.Errorf("objects leaked: %d still running", total)
	}
	if n := len(class.Instances()); n != 0 {
		t.Errorf("class still manages %d instances", n)
	}
	t.Logf("placed=%d failed=%d under contention", placed, failed)
}
