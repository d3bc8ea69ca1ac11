package scheduler

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"legion/internal/classobj"
	"legion/internal/collection"
	"legion/internal/enactor"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/vault"
	"legion/internal/vclock"
)

// tenv is a full single-runtime metasystem for scheduler tests.
type tenv struct {
	rt      *orb.Runtime
	coll    *collection.Collection
	vaults  []*vault.Vault
	hosts   []*host.Host
	class   *classobj.Class
	enactor *enactor.Enactor
	env     *Env
}

// hostSpec describes one synthetic host.
type hostSpec struct {
	arch string
	os   string
	load float64
	cpus int
}

func newTenv(t *testing.T, specs []hostSpec) *tenv {
	t.Helper()
	return newTenvOn(t, nil, specs)
}

// newTenvOn is newTenv on a runtime running on clock (nil = the wall
// clock), installed before any service is built.
func newTenvOn(t *testing.T, clock vclock.Clock, specs []hostSpec) *tenv {
	t.Helper()
	rt := orb.NewRuntime("uva")
	rt.SetClock(clock)
	coll := collection.New(rt, nil)
	v := vault.New(rt, vault.Config{Zone: "z1"})
	e := &tenv{rt: rt, coll: coll, vaults: []*vault.Vault{v}}
	for _, s := range specs {
		cpus := s.cpus
		if cpus == 0 {
			cpus = 4
		}
		h := host.New(rt, host.Config{
			Arch: s.arch, OS: s.os, CPUs: cpus, MemoryMB: 1024, Zone: "z1",
			Vaults: []loid.LOID{v.LOID()},
		})
		h.SetExternalLoad(s.load)
		h.Reassess(context.Background())
		if err := coll.Join(h.LOID(), h.Attributes(), ""); err != nil {
			t.Fatal(err)
		}
		e.hosts = append(e.hosts, h)
	}
	e.class = classobj.New(rt, classobj.Config{Name: "Worker", Impls: []proto.Implementation{
		{Arch: "x86", OS: "Linux"},
	}})
	e.enactor = enactor.New(rt, enactor.Config{})
	e.env = &Env{RT: rt, Collection: coll.LOID(), Rand: rand.New(rand.NewSource(42))}
	return e
}

func (e *tenv) req(count int) Request {
	return Request{
		Classes: []ClassRequest{{Class: e.class.LOID(), Count: count}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
}

func (e *tenv) hostSet(matching ...int) map[loid.LOID]bool {
	m := make(map[loid.LOID]bool)
	for _, i := range matching {
		m[e.hosts[i].LOID()] = true
	}
	return m
}

func TestRandomMatchesImplementations(t *testing.T) {
	e := newTenv(t, []hostSpec{
		{arch: "x86", os: "Linux"},
		{arch: "sparc", os: "Solaris"}, // must never be picked
		{arch: "x86", os: "Linux"},
	})
	ok := e.hostSet(0, 2)
	rl, err := Random{}.Generate(context.Background(), e.env, e.req(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(rl.Masters) != 1 || len(rl.Masters[0].Mappings) != 20 {
		t.Fatalf("schedule shape: %+v", rl)
	}
	if len(rl.Masters[0].Variants) != 0 {
		t.Error("Random should emit no variants (Fig 7)")
	}
	for _, m := range rl.Masters[0].Mappings {
		if !ok[m.Host] {
			t.Errorf("mapping on non-matching host %v", m.Host)
		}
		if m.Vault != e.vaults[0].LOID() {
			t.Errorf("vault %v", m.Vault)
		}
		if m.Class != e.class.LOID() {
			t.Errorf("class %v", m.Class)
		}
	}
	if err := rl.Masters[0].Validate(); err != nil {
		t.Error(err)
	}
}

func TestRandomDeterministicUnderSeed(t *testing.T) {
	e := newTenv(t, []hostSpec{{arch: "x86", os: "Linux"}, {arch: "x86", os: "Linux"}})
	gen := Random{}
	e.env.Rand = rand.New(rand.NewSource(7))
	a, _ := gen.Generate(context.Background(), e.env, e.req(10))
	e.env.Rand = rand.New(rand.NewSource(7))
	b, _ := gen.Generate(context.Background(), e.env, e.req(10))
	for i := range a.Masters[0].Mappings {
		if a.Masters[0].Mappings[i] != b.Masters[0].Mappings[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
}

func TestRandomNoResources(t *testing.T) {
	e := newTenv(t, []hostSpec{{arch: "sparc", os: "Solaris"}})
	_, err := Random{}.Generate(context.Background(), e.env, e.req(1))
	if !errors.Is(err, ErrNoResources) {
		t.Errorf("want ErrNoResources, got %v", err)
	}
}

func TestRandomRequiresRand(t *testing.T) {
	e := newTenv(t, []hostSpec{{arch: "x86", os: "Linux"}})
	e.env.Rand = nil
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	Random{}.Generate(context.Background(), e.env, e.req(1))
}

func TestIRSStructure(t *testing.T) {
	e := newTenv(t, []hostSpec{
		{arch: "x86", os: "Linux"}, {arch: "x86", os: "Linux"},
		{arch: "x86", os: "Linux"}, {arch: "x86", os: "Linux"},
	})
	rl, err := IRS{NSched: 4}.Generate(context.Background(), e.env, e.req(6))
	if err != nil {
		t.Fatal(err)
	}
	m := rl.Masters[0]
	if len(m.Mappings) != 6 {
		t.Fatalf("mappings: %d", len(m.Mappings))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Variants) == 0 || len(m.Variants) > 3 {
		t.Errorf("variants: %d (want 1..3 for NSched=4)", len(m.Variants))
	}
	// Every variant replacement must actually differ from the master
	// ("construct a list of all that do not appear in the master list").
	for vi, v := range m.Variants {
		if !v.Covers.Any() {
			t.Errorf("variant %d empty", vi)
		}
		for _, r := range v.Replacements {
			if r.Mapping == m.Mappings[r.Index] {
				t.Errorf("variant %d entry %d identical to master", vi, r.Index)
			}
		}
	}
}

func TestIRSFewerCollectionLookupsThanRepeatedRandom(t *testing.T) {
	e := newTenv(t, []hostSpec{
		{arch: "x86", os: "Linux"}, {arch: "x86", os: "Linux"}, {arch: "x86", os: "Linux"},
	})
	ctx := context.Background()
	const n = 4

	q0, _ := e.coll.Stats()
	if _, err := (IRS{NSched: n}).Generate(ctx, e.env, e.req(5)); err != nil {
		t.Fatal(err)
	}
	q1, _ := e.coll.Stats()
	irsQueries := q1 - q0

	for i := 0; i < n; i++ {
		if _, err := (Random{}).Generate(ctx, e.env, e.req(5)); err != nil {
			t.Fatal(err)
		}
	}
	q2, _ := e.coll.Stats()
	randomQueries := q2 - q1

	if irsQueries >= randomQueries {
		t.Errorf("IRS used %d lookups, %d x Random used %d — paper claims IRS does fewer",
			irsQueries, n, randomQueries)
	}
	if irsQueries != 1 {
		t.Errorf("IRS lookups = %d, want 1 per class", irsQueries)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	e := newTenv(t, []hostSpec{
		{arch: "x86", os: "Linux"}, {arch: "x86", os: "Linux"}, {arch: "x86", os: "Linux"},
	})
	rr := &RoundRobin{}
	rl, err := rr.Generate(context.Background(), e.env, e.req(9))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[loid.LOID]int{}
	for _, m := range rl.Masters[0].Mappings {
		counts[m.Host]++
	}
	for _, h := range e.hosts {
		if counts[h.LOID()] != 3 {
			t.Errorf("host %v got %d instances, want 3", h.LOID(), counts[h.LOID()])
		}
	}
}

func TestLoadAwarePrefersIdleHosts(t *testing.T) {
	e := newTenv(t, []hostSpec{
		{arch: "x86", os: "Linux", load: 0.9, cpus: 4},
		{arch: "x86", os: "Linux", load: 0.1, cpus: 4},
		{arch: "x86", os: "Linux", load: 0.5, cpus: 4},
	})
	rl, err := LoadAware{}.Generate(context.Background(), e.env, e.req(2))
	if err != nil {
		t.Fatal(err)
	}
	// Both instances fit comfortably on the idle host (projected load
	// 0.1, then 0.35 — still the minimum).
	for _, m := range rl.Masters[0].Mappings {
		if m.Host != e.hosts[1].LOID() {
			t.Errorf("instance on %v, want idle host %v", m.Host, e.hosts[1].LOID())
		}
	}
	if err := rl.Masters[0].Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rl.Masters[0].Variants) == 0 {
		t.Error("LoadAware should emit fallback variants")
	}
}

func TestLoadAwareProjectedLoadSpreads(t *testing.T) {
	e := newTenv(t, []hostSpec{
		{arch: "x86", os: "Linux", load: 0.0, cpus: 1},
		{arch: "x86", os: "Linux", load: 0.1, cpus: 1},
	})
	// 4 instances on 1-CPU hosts: projected load forces alternation
	// rather than piling all on host 0.
	rl, err := LoadAware{}.Generate(context.Background(), e.env, e.req(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[loid.LOID]int{}
	for _, m := range rl.Masters[0].Mappings {
		counts[m.Host]++
	}
	if counts[e.hosts[0].LOID()] != 2 || counts[e.hosts[1].LOID()] != 2 {
		t.Errorf("distribution: %v", counts)
	}
}

func TestCostAwarePrefersCheapHosts(t *testing.T) {
	rt := orb.NewRuntime("uva")
	coll := collection.New(rt, nil)
	v := vault.New(rt, vault.Config{Zone: "z1"})
	costs := []float64{5.0, 0.5, 2.0}
	var hosts []*host.Host
	for _, c := range costs {
		h := host.New(rt, host.Config{
			Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 1024, Zone: "z1",
			CostPerCPU: c, Vaults: []loid.LOID{v.LOID()},
		})
		coll.Join(h.LOID(), h.Attributes(), "")
		hosts = append(hosts, h)
	}
	class := classobj.New(rt, classobj.Config{Name: "Worker"})
	env := &Env{RT: rt, Collection: coll.LOID()}
	rl, err := CostAware{}.Generate(context.Background(), env, Request{
		Classes: []ClassRequest{{Class: class.LOID(), Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rl.Masters[0].Mappings[0].Host != hosts[1].LOID() {
		t.Errorf("placed on %v, want cheapest %v", rl.Masters[0].Mappings[0].Host, hosts[1].LOID())
	}
}

func TestStencilContiguousBandsAndEdgeCut(t *testing.T) {
	e := newTenv(t, []hostSpec{
		{arch: "x86", os: "Linux", cpus: 8},
		{arch: "x86", os: "Linux", cpus: 8},
		{arch: "x86", os: "Linux", cpus: 8},
	})
	const rows, cols = 6, 6
	gen := Stencil{Rows: rows, Cols: cols}
	rl, err := gen.Generate(context.Background(), e.env, e.req(rows*cols))
	if err != nil {
		t.Fatal(err)
	}
	maps := rl.Masters[0].Mappings
	if len(maps) != rows*cols {
		t.Fatalf("mappings: %d", len(maps))
	}
	// Rows are never split across hosts.
	for r := 0; r < rows; r++ {
		rowHost := maps[r*cols].Host
		for c := 1; c < cols; c++ {
			if maps[r*cols+c].Host != rowHost {
				t.Fatalf("row %d split across hosts", r)
			}
		}
	}
	// Band partition: equal capacity -> 2 rows each -> edge cut = 2
	// boundaries * 6 cols = 12.
	cut := EdgeCut(AssignmentOf(maps), rows, cols)
	if cut != 12 {
		t.Errorf("stencil edge cut = %d, want 12", cut)
	}

	// Random placement on the same fleet has a (much) higher cut.
	rrl, err := Random{}.Generate(context.Background(), e.env, e.req(rows*cols))
	if err != nil {
		t.Fatal(err)
	}
	randCut := EdgeCut(AssignmentOf(rrl.Masters[0].Mappings), rows, cols)
	if randCut <= cut {
		t.Errorf("random cut %d <= stencil cut %d; specialized policy should win", randCut, cut)
	}
}

func TestStencilValidation(t *testing.T) {
	e := newTenv(t, []hostSpec{{arch: "x86", os: "Linux"}})
	if _, err := (Stencil{Rows: 0, Cols: 3}).Generate(context.Background(), e.env, e.req(0)); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := (Stencil{Rows: 2, Cols: 3}).Generate(context.Background(), e.env, e.req(5)); err == nil {
		t.Error("count != rows*cols accepted")
	}
}

func TestEdgeCutKnownCases(t *testing.T) {
	a := loid.LOID{Domain: "d", Class: "H", Instance: 1}
	b := loid.LOID{Domain: "d", Class: "H", Instance: 2}
	// 2x2 all same host: cut 0.
	if c := EdgeCut([]loid.LOID{a, a, a, a}, 2, 2); c != 0 {
		t.Errorf("uniform cut = %d", c)
	}
	// 2x2 checkerboard: every edge cut (4 edges).
	if c := EdgeCut([]loid.LOID{a, b, b, a}, 2, 2); c != 4 {
		t.Errorf("checkerboard cut = %d", c)
	}
	// 2x2 split by row: 2 vertical edges cut.
	if c := EdgeCut([]loid.LOID{a, a, b, b}, 2, 2); c != 2 {
		t.Errorf("row split cut = %d", c)
	}
}

func TestWrapperSuccess(t *testing.T) {
	e := newTenv(t, []hostSpec{{arch: "x86", os: "Linux"}, {arch: "x86", os: "Linux"}})
	out, err := Wrapper{}.Run(context.Background(), e.env, e.enactor.LOID(), Random{}, e.req(3))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success || out.SchedAttempts != 1 || out.EnactAttempts != 1 {
		t.Errorf("outcome: %+v", out)
	}
	if len(out.Instances) != 3 {
		t.Errorf("instances: %v", out.Instances)
	}
	total := 0
	for _, h := range e.hosts {
		total += h.RunningCount()
	}
	if total != 3 {
		t.Errorf("running objects: %d", total)
	}
}

func TestWrapperRetriesThenFails(t *testing.T) {
	// All hosts refuse reservations: the wrapper must exhaust its limits
	// and report failure with attempt counts.
	rt := orb.NewRuntime("uva")
	coll := collection.New(rt, nil)
	v := vault.New(rt, vault.Config{Zone: "z1"})
	h := host.New(rt, host.Config{
		Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()},
	})
	h.SetPolicy(func(proto.MakeReservationArgs) error {
		return fmt.Errorf("%w: nothing today", host.ErrPolicy)
	})
	coll.Join(h.LOID(), h.Attributes(), "")
	class := classobj.New(rt, classobj.Config{Name: "Worker"})
	en := enactor.New(rt, enactor.Config{})
	env := &Env{RT: rt, Collection: coll.LOID(), Rand: rand.New(rand.NewSource(1))}

	out, err := Wrapper{SchedTryLimit: 2, EnactTryLimit: 2}.Run(
		context.Background(), env, en.LOID(), Random{},
		Request{Classes: []ClassRequest{{Class: class.LOID(), Count: 1}},
			Res: sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour}})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if out.Success || out.SchedAttempts != 2 || out.EnactAttempts != 4 {
		t.Errorf("outcome: %+v", out)
	}
	if out.Feedback.Reason != sched.FailureResources {
		t.Errorf("feedback reason: %v", out.Feedback.Reason)
	}
}

func TestWrapperRecoversFromContention(t *testing.T) {
	// One host with exclusive (space-sharing) semantics and two wrappers
	// competing: the first wins, the second fails on resources — then
	// after cancel, a retry succeeds.
	e := newTenv(t, []hostSpec{{arch: "x86", os: "Linux"}})
	ctx := context.Background()
	exclusive := Request{
		Classes: []ClassRequest{{Class: e.class.LOID(), Count: 1}},
		Res:     sched.ReservationSpec{Share: false, Reuse: true, Duration: time.Hour},
	}
	out1, err := Wrapper{}.Run(ctx, e.env, e.enactor.LOID(), Random{}, exclusive)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Wrapper{SchedTryLimit: 1, EnactTryLimit: 1}).Run(ctx, e.env, e.enactor.LOID(), Random{}, exclusive); err == nil {
		t.Fatal("second exclusive placement should fail")
	}
	// Release the first episode's resources, then retry succeeds.
	if err := e.enactor.CancelReservations(ctx, out1.RequestID); err != nil {
		t.Fatal(err)
	}
	// Kill the running object to free the machine conceptually (the
	// reservation was what blocked; object slots are not exclusive).
	if _, err := (Wrapper{}).Run(ctx, e.env, e.enactor.LOID(), Random{}, exclusive); err != nil {
		t.Fatalf("after cancel: %v", err)
	}
}

func TestQueryHostsParsesEverything(t *testing.T) {
	e := newTenv(t, []hostSpec{{arch: "x86", os: "Linux", load: 0.25, cpus: 8}})
	hosts, err := QueryHosts(context.Background(), e.env, "defined($host_arch)")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 1 {
		t.Fatalf("hosts: %v", hosts)
	}
	h := hosts[0]
	if h.Arch != "x86" || h.OS != "Linux" || h.Load != 0.25 || h.CPUs != 8 ||
		h.Zone != "z1" || h.Batch || len(h.Vaults) != 1 {
		t.Errorf("parsed: %+v", h)
	}
}

func TestImplQueryShapes(t *testing.T) {
	if q := implQuery(nil); q != `defined($host_arch)` {
		t.Errorf("empty impls: %q", q)
	}
	q := implQuery([]proto.Implementation{
		{Arch: "x86", OS: "Linux", MemoryMB: 128},
		{Arch: "sparc"},
		{},
	})
	want := `($host_arch == "x86" and $host_os_name == "Linux" and $host_mem_available_mb >= 128) or ($host_arch == "sparc") or (defined($host_arch))`
	if q != want {
		t.Errorf("query:\n got %q\nwant %q", q, want)
	}
}

func TestGeneratorNames(t *testing.T) {
	names := map[Generator]string{
		Random{}:      "random",
		IRS{}:         "irs",
		&RoundRobin{}: "round-robin",
		LoadAware{}:   "load-aware",
		CostAware{}:   "cost-aware",
		Stencil{}:     "stencil",
	}
	for gen, want := range names {
		if gen.Name() != want {
			t.Errorf("Name() = %q, want %q", gen.Name(), want)
		}
	}
}

func TestReplicatedKofN(t *testing.T) {
	e := newTenv(t, []hostSpec{
		{arch: "x86", os: "Linux", load: 0.8},
		{arch: "x86", os: "Linux", load: 0.1},
		{arch: "x86", os: "Linux", load: 0.5},
		{arch: "x86", os: "Linux", load: 0.3},
	})
	rl, err := Replicated{N: 3}.Generate(context.Background(), e.env, e.req(2))
	if err != nil {
		t.Fatal(err)
	}
	m := rl.Masters[0]
	if len(m.Mappings) != 0 || len(m.KofN) != 1 {
		t.Fatalf("schedule shape: %+v", m)
	}
	g := m.KofN[0]
	if g.K != 2 || len(g.Alternatives) != 3 {
		t.Fatalf("group: %+v", g)
	}
	// Preference order = ascending load: hosts 1 (0.1), 3 (0.3), 2 (0.5).
	if g.Alternatives[0].Host != e.hosts[1].LOID() ||
		g.Alternatives[1].Host != e.hosts[3].LOID() ||
		g.Alternatives[2].Host != e.hosts[2].LOID() {
		t.Errorf("preference order: %v", g.Alternatives)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	// End to end: the Enactor binds k=2 of the alternatives.
	out, err := Wrapper{}.Run(context.Background(), e.env, e.enactor.LOID(), Replicated{N: 3}, e.req(2))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success || len(out.Instances) != 2 {
		t.Fatalf("outcome: %+v", out)
	}
	hostsUsed := map[loid.LOID]bool{}
	for _, m := range out.Feedback.Resolved {
		hostsUsed[m.Host] = true
	}
	if len(hostsUsed) != 2 {
		t.Errorf("replicas not on distinct hosts: %v", out.Feedback.Resolved)
	}
}

func TestReplicatedInsufficientHosts(t *testing.T) {
	e := newTenv(t, []hostSpec{{arch: "x86", os: "Linux"}})
	_, err := Replicated{}.Generate(context.Background(), e.env, e.req(3))
	if !errors.Is(err, ErrNoResources) {
		t.Errorf("want ErrNoResources, got %v", err)
	}
}
