package scheduler

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/classobj"
	"legion/internal/collection"
	"legion/internal/loid"
	"legion/internal/netobj"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sched"
)

// goldenFleet is the fixed heterogeneous fleet the golden schedules are
// recorded against: mixed price, cost, load, speed, zone and vault
// counts, with three-way ties on every ranking key (hosts 2, 3, 12), one
// host flagged down (7), one with no vault (8) and one of the wrong
// architecture (11). Records are joined by hand — Generate only reads the
// class and the Collection — so the LOIDs are fixed literals.
type goldenHost struct {
	n                        uint64
	load                     float64
	cpus                     int
	zone                     string
	cost, price              float64
	spot                     bool
	speed                    float64
	vaults                   []uint64
	down, sparc, unsetSpeeds bool
}

var goldenFleet = []goldenHost{
	{n: 1, load: 0.50, cpus: 4, zone: "za", cost: 0.03, price: 2.0, speed: 1.0, vaults: []uint64{1}},
	{n: 2, load: 0.10, cpus: 2, zone: "zb", cost: 0.01, price: 0.5, spot: true, speed: 0.5, vaults: []uint64{2, 1}},
	{n: 3, load: 0.10, cpus: 8, zone: "za", cost: 0.01, price: 0.5, spot: true, speed: 2.0, vaults: []uint64{1, 2, 3}},
	{n: 4, load: 0.90, cpus: 4, zone: "zc", cost: 0.02, price: 0.5, spot: true, speed: 1.0, vaults: []uint64{3}},
	{n: 5, load: 0.30, cpus: 1, zone: "zb", cost: 0.02, price: 1.0, speed: 1.5, vaults: []uint64{2}},
	{n: 6, load: 0.00, cpus: 4, zone: "zc", cost: 0.05, price: 4.0, speed: 4.0, vaults: []uint64{3, 1}},
	{n: 7, load: 0.05, cpus: 4, zone: "za", cost: 0.01, price: 0.25, speed: 1.0, vaults: []uint64{1}, down: true},
	{n: 8, load: 0.02, cpus: 16, zone: "zb", cost: 0.001, price: 0.1, speed: 1.0},
	{n: 9, load: 0.30, cpus: 2, zone: "za", cost: 0.02, price: 1.0, speed: 1.0, vaults: []uint64{1, 2}},
	{n: 10, load: 0.25, cpus: 4, zone: "zc", cost: 0.03, price: 2.0, vaults: []uint64{3}, unsetSpeeds: true},
	{n: 11, load: 0.00, cpus: 64, zone: "za", cost: 0.0, price: 0.0, speed: 8.0, vaults: []uint64{1}, sparc: true},
	{n: 12, load: 0.10, cpus: 4, zone: "zb", cost: 0.01, price: 0.5, spot: true, speed: 1.0, vaults: []uint64{2}},
}

func goldenLOID(class string, n uint64) loid.LOID {
	return loid.LOID{Domain: "uva", Class: class, Instance: n}
}

func (g goldenHost) attrs() []attr.Pair {
	arch, os := "x86", "Linux"
	if g.sparc {
		arch, os = "sparc", "Solaris"
	}
	class := "reserved"
	if g.spot {
		class = "spot"
	}
	vs := make([]string, len(g.vaults))
	for i, v := range g.vaults {
		vs[i] = goldenLOID("Vault", v).String()
	}
	ps := []attr.Pair{
		{Name: "host_arch", Value: attr.String(arch)},
		{Name: "host_os_name", Value: attr.String(os)},
		{Name: "host_load", Value: attr.Float(g.load)},
		{Name: "host_cpus", Value: attr.Int(int64(g.cpus))},
		{Name: "host_zone", Value: attr.String(g.zone)},
		{Name: "host_cost_per_cpu", Value: attr.Float(g.cost)},
		{Name: "host_price", Value: attr.Float(g.price)},
		{Name: "host_class", Value: attr.String(class)},
		{Name: "host_vaults", Value: attr.Strings(vs...)},
	}
	if !g.unsetSpeeds {
		ps = append(ps, attr.Pair{Name: "host_speed", Value: attr.Float(g.speed)})
	}
	if g.down {
		ps = append(ps, attr.Pair{Name: "host_alive", Value: attr.Bool(false)})
	}
	return ps
}

// goldenEnv builds the fleet's Collection and two classes in a fresh
// runtime. cached selects whether Env.Cache is set.
type goldenEnv struct {
	env          *Env
	coll         *collection.Collection
	worker, cell *classobj.Class
}

func newGoldenEnv(t testing.TB, cached bool) *goldenEnv {
	t.Helper()
	rt := orb.NewRuntime("uva")
	coll := collection.New(rt, nil)
	// Join out of LOID order: the base order is the scheduler's to impose.
	for _, i := range []int{5, 0, 11, 3, 9, 1, 7, 2, 10, 4, 8, 6} {
		g := goldenFleet[i]
		if err := coll.Join(goldenLOID("Host", g.n), g.attrs(), ""); err != nil {
			t.Fatal(err)
		}
	}
	e := &goldenEnv{
		coll:   coll,
		worker: classobj.New(rt, classobj.Config{Name: "Worker", Impls: []proto.Implementation{{Arch: "x86", OS: "Linux"}}}),
		cell:   classobj.New(rt, classobj.Config{Name: "Cell", Impls: []proto.Implementation{{Arch: "x86"}}}),
		env:    &Env{RT: rt, Collection: coll.LOID()},
	}
	if cached {
		e.env.Cache = NewHostCache(nil, time.Hour)
	}
	return e
}

func (e *goldenEnv) req(res sched.ReservationSpec, counts ...int) Request {
	classes := []*classobj.Class{e.worker, e.cell}
	r := Request{Res: res}
	for i, n := range counts {
		r.Classes = append(r.Classes, ClassRequest{Class: classes[i].LOID(), Count: n})
	}
	return r
}

// goldenArm is one recorded decision: a generator run over a request.
type goldenArm struct {
	name string
	gen  func() Generator // fresh per run (RoundRobin carries state)
	req  func(e *goldenEnv) Request
	runs int // Generate calls hashed together; 0 means 1
	// links are joined to the Collection as link records for this arm
	// alone.
	links []goldenLink
}

// goldenLink is one zone-to-zone link and its latency in ms.
type goldenLink struct {
	a, b string
	ms   float64
}

func goldenArms() []goldenArm {
	plain := sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour}
	two := func(a, b int) func(*goldenEnv) Request {
		return func(e *goldenEnv) Request { return e.req(plain, a, b) }
	}
	one := func(n int) func(*goldenEnv) Request {
		return func(e *goldenEnv) Request { return e.req(plain, n) }
	}
	econ := func(deadline time.Duration, budget float64, n int) func(*goldenEnv) Request {
		return func(e *goldenEnv) Request {
			res := plain
			res.Deadline, res.Budget, res.Tenant = deadline, budget, "acme"
			return e.req(res, n, 2)
		}
	}
	gen := func(g Generator) func() Generator { return func() Generator { return g } }
	return []goldenArm{
		{name: "random", gen: gen(Random{}), req: two(7, 3), runs: 2},
		{name: "irs-3", gen: gen(IRS{NSched: 3}), req: two(7, 3), runs: 2},
		{name: "irs-default", gen: gen(IRS{}), req: two(5, 0)},
		{name: "irs-1", gen: gen(IRS{NSched: 1}), req: one(4)},
		{name: "round-robin", gen: func() Generator { return &RoundRobin{} }, req: two(7, 12), runs: 3},
		{name: "load-aware", gen: gen(LoadAware{}), req: two(13, 4)},
		{name: "load-aware-5", gen: gen(LoadAware{Variants: 5}), req: one(9)},
		{name: "load-aware-many-variants", gen: gen(LoadAware{Variants: 40}), req: one(3)},
		{name: "cost-aware", gen: gen(CostAware{}), req: two(11, 4)},
		{name: "replicated-all", gen: gen(Replicated{}), req: two(3, 2)},
		{name: "replicated-below-fleet", gen: gen(Replicated{N: 4}), req: two(3, 2)},
		{name: "replicated-above-fleet", gen: gen(Replicated{N: 100}), req: one(5)},
		{name: "replicated-n-below-k", gen: gen(Replicated{N: 2}), req: one(6)},
		{name: "replicated-insufficient", gen: gen(Replicated{}), req: one(10)},
		{name: "deadline-budget-unconstrained", gen: gen(DeadlineBudget{}), req: econ(0, 0, 7)},
		{name: "deadline-budget-constrained", gen: gen(DeadlineBudget{}), req: econ(3*time.Hour, 0, 9), runs: 2},
		{name: "deadline-budget-constrained-budget", gen: gen(DeadlineBudget{Variants: 3, Margin: 0.9, Estimate: 30 * time.Minute}), req: econ(2*time.Hour, 50, 12)},
		{name: "deadline-budget-spill", gen: gen(DeadlineBudget{}), req: econ(80*time.Minute, 0, 40)},
		{name: "deadline-budget-budget-only", gen: gen(DeadlineBudget{}), req: econ(0, 1000, 6)},
		{name: "deadline-budget-over-budget", gen: gen(DeadlineBudget{}), req: econ(3*time.Hour, 0.5, 9)},
		{name: "stencil", gen: gen(Stencil{Rows: 9, Cols: 4}), req: one(36)},
		{name: "stencil-fewer-rows-than-hosts", gen: gen(Stencil{Rows: 3, Cols: 2}), req: one(6)},
		{name: "comm-aware", gen: gen(CommAware{Rows: 9, Cols: 4}), req: one(36),
			links: []goldenLink{{"za", "zb", 40}, {"za", "zc", 5}, {"zb", "zc", 60}}},
		{name: "comm-aware-no-topology", gen: gen(CommAware{Rows: 7, Cols: 3}), req: one(21)},
	}
}

// run hashes the arm's decisions under a fresh seed-7 rand: the wire
// bytes of each RequestList, or the error text.
func (a goldenArm) run(t testing.TB, e *goldenEnv) string {
	t.Helper()
	net := orb.NewRuntime("net")
	for _, l := range a.links {
		link := netobj.NewLink(net, l.a, l.b, l.ms, 100)
		if err := e.coll.Join(link.LOID(), link.Attributes(), ""); err != nil {
			t.Fatal(err)
		}
		defer e.coll.Leave(link.LOID(), "")
	}
	e.env.Rand = rand.New(rand.NewSource(7))
	h := sha256.New()
	g := a.gen()
	for i := 0; i < max(a.runs, 1); i++ {
		rl, err := g.Generate(context.Background(), e.env, a.req(e))
		if err != nil {
			fmt.Fprintf(h, "error: %v\n", err)
			continue
		}
		if verr := rl.Validate(); verr != nil {
			t.Errorf("%s: invalid schedule: %v", a.name, verr)
		}
		h.Write(rl.AppendWire(nil))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenSchedules holds the sha256 of every arm's output as produced by
// the commit BEFORE the placement core existed (0b9f28b: ten hand-rolled
// Generate bodies). The refactor is correct iff none of these move.
var goldenSchedules = map[string]string{
	"random":                             "54b5f789919ce1621fb1a4aa0c0cb29853e850550617a2fdc2d8133ed2a9dbfc",
	"irs-3":                              "8356638040d51caeaa9793e6469525f02fb5fd8ef55dce2e03c0356d72261d04",
	"irs-default":                        "9f7a19cc6700c24164c93f101420d07a5ab9ef812a265022f56e428aafd51a24",
	"irs-1":                              "ff97276698a6c9082a821d2a2b0bfb86b1e87c800a3e5f0c3970195c72da591d",
	"round-robin":                        "5ea3fd0e62db9d4c8359d47ccb7263120d21fff32eb330136223a17bf2dd37fd",
	"load-aware":                         "4708030c8a8b74f6efbf6ce5efd8a98e16ca84f6148703848a5964ec28e1073f",
	"load-aware-5":                       "2ec060ca1c8d5366d890a0be47cbba18b06ded86223a3fc9648d098596dda18c",
	"load-aware-many-variants":           "2715d6747f1449242419ab29a12362eff38c88ec3037c365e535323bc220aace",
	"cost-aware":                         "aab6c013655b9ded4a4bd1915261b789bcd6c52075a9b734bb1b225dabc243ae",
	"replicated-all":                     "238966d06e8b56393d1d148c59b7cddb7b31ae703d7ea554b383976fab66f675",
	"replicated-below-fleet":             "d08a1be1aa937ddb392fdd4259d5ca5d56036c31a5d8658f3d2e65b0433d28cf",
	"replicated-above-fleet":             "56eb9b1263335df012708d3f5933ab4a09a757d90d6b28f3d5d0b70024570a83",
	"replicated-n-below-k":               "d16c07735faa32180b5351e9bcef8c2d08ffcbde05ac5d5bdb18ad374bd0e0e4",
	"replicated-insufficient":            "d03acd450ec09179668a01f6fce733ef4d88ed54a5dabe539df7c3fbb6aa3877",
	"deadline-budget-unconstrained":      "370df775eff2dcf398914a4a3a5e1f66253dbefbd9e4838dc903cb10ccbec48b",
	"deadline-budget-constrained":        "e5e82e3d6bf6e315c250488104184beca5232f6f8b66edbb15f7f978e53a7309",
	"deadline-budget-constrained-budget": "21092207ecb243d69cf263206e7a8af8fe63d113c3de4a6a9cea4af0ce3d0e91",
	"deadline-budget-spill":              "40ee7262b0aa799d0c171eda2db1a2b8586aa2b2128fabec911b6f5dc15b7013",
	"deadline-budget-budget-only":        "e760b1c3f39f3dbd5d5b81aef24cc3ac8a669afc1705324f981f3fdc12af0dd3",
	"deadline-budget-over-budget":        "9a32f667aa8ec9531a96df8c1c8b4b2cc701045026fcbd7054d59bce4ec61402",
	"stencil":                            "2af8b70759dcde37e3749e1407ccf74526efb23f5c7258a0c965b2aff039dab0",
	"stencil-fewer-rows-than-hosts":      "4cc9ea3b30cf970168d9e7593160394f43ccf1259555ef097f4e33ec29ad5164",
	"comm-aware":                         "e60d94e945229ceeb24ded9f6f0cc804f9e3f18108b091880ada27128406bec0",
	"comm-aware-no-topology":             "2eae56ec6764809dc090bcea7c472be1da214c2410bcd930c2edf64975f9c02a",
}

// TestGeneratorGoldenSchedules pins every generator decision for
// decision, with and without Env.Cache: the hashes were recorded from
// the parent commit's code and must not be edited to make a refactor
// pass.
func TestGeneratorGoldenSchedules(t *testing.T) {
	for _, cached := range []bool{false, true} {
		e := newGoldenEnv(t, cached)
		for _, a := range goldenArms() {
			got := a.run(t, e)
			want, ok := goldenSchedules[a.name]
			if !ok {
				t.Errorf("unrecorded arm:\t%q: %q,", a.name, got)
				continue
			}
			if got != want {
				t.Errorf("%s (cache=%v): schedule hash %s, want %s", a.name, cached, got, want)
			}
		}
	}
}

// goldenParamSpace is the same pin for the tenth placement path, which
// emits no RequestList: the study's token-by-token account.
const goldenParamSpace = "10b8f95a779e6dc8eb2dc6674338b43f53e1f798d703d302a5a8b34027d4be52"

func paramSpaceDigest(t *testing.T, cached bool) string {
	t.Helper()
	e := newTenv(t, []hostSpec{
		{arch: "x86", os: "Linux", load: 0.6},
		{arch: "x86", os: "Linux", load: 0.2, cpus: 1},
		{arch: "sparc", os: "Solaris"},
		{arch: "x86", os: "Linux", load: 0.2},
		{arch: "x86", os: "Linux", load: 0.9},
	})
	if cached {
		e.env.Cache = NewHostCache(nil, time.Hour)
	}
	var ranOn []string
	res, err := ParamSpace{Slots: 3, ReuseCap: 4}.Run(context.Background(), e.env, e.class, 30,
		func(ctx context.Context, inst loid.LOID, task int) error {
			h, _, _ := e.class.WhereIs(inst)
			ranOn = append(ranOn, h.String())
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(res.PerToken))
	for k, n := range res.PerToken {
		keys = append(keys, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d %d %d %d\n%s\n%s", res.Started, res.Failed,
		res.ReservationRPCs, res.Renewals, strings.Join(keys, ","), strings.Join(ranOn, ","))))
	return hex.EncodeToString(sum[:])
}

func TestParamSpaceGoldenStudy(t *testing.T) {
	for _, cached := range []bool{false, true} {
		if got := paramSpaceDigest(t, cached); got != goldenParamSpace {
			t.Errorf("cache=%v: study digest %q, want %q", cached, got, goldenParamSpace)
		}
	}
}

// TestSharedViewReadOnly is the guard the HostCache's old "callers MUST
// NOT reorder" comment only asked for: every generator and a ParamSpace
// study hammer one cached Env from 8 goroutines (run under -race), and
// afterwards the cache's shared views are element for element what they
// were before.
func TestSharedViewReadOnly(t *testing.T) {
	e := newTenv(t, []hostSpec{
		{arch: "x86", os: "Linux", load: 0.9},
		{arch: "x86", os: "Linux", load: 0.5},
		{arch: "x86", os: "Linux", load: 0.1},
		{arch: "x86", os: "Linux", load: 0.3, cpus: 2},
	})
	e.env.Cache = NewHostCache(nil, time.Hour)
	e.env.Rand = nil // per-goroutine Envs below carry their own
	ctx := context.Background()

	// Warm the cache and snapshot both views.
	warm := *e.env
	warm.Rand = rand.New(rand.NewSource(1))
	if _, err := (Random{}).Generate(ctx, &warm, e.req(1)); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string][2][]HostInfo {
		e.env.Cache.mu.Lock()
		defer e.env.Cache.mu.Unlock()
		out := make(map[string][2][]HostInfo)
		for q, ent := range e.env.Cache.entries {
			out[q] = [2][]HostInfo{
				append([]HostInfo(nil), ent.hosts...),
				append([]HostInfo(nil), ent.usable...),
			}
		}
		return out
	}
	before := snapshot()
	if len(before) == 0 {
		t.Fatal("cache not warmed")
	}

	res := sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour}
	econ := res
	econ.Deadline = 6 * time.Hour
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			env := *e.env // shares RT, Collection and Cache
			env.Rand = rand.New(rand.NewSource(int64(g)))
			gens := []Generator{
				Random{}, IRS{NSched: 3}, &RoundRobin{}, LoadAware{}, CostAware{},
				Replicated{N: 3}, DeadlineBudget{}, Stencil{Rows: 4, Cols: 2},
				CommAware{Rows: 4, Cols: 2},
			}
			for round := 0; round < 5; round++ {
				for _, gen := range gens {
					req := Request{Classes: []ClassRequest{{Class: e.class.LOID(), Count: 3}}, Res: res}
					switch gen.(type) {
					case Stencil, CommAware:
						req.Classes[0].Count = 8
					case DeadlineBudget:
						req.Res = econ
					}
					if _, err := gen.Generate(ctx, &env, req); err != nil {
						t.Errorf("%s: %v", gen.Name(), err)
					}
				}
				if _, err := (ParamSpace{Slots: 1, ReuseCap: 2}).Run(ctx, &env, e.class, 2, nil); err != nil {
					t.Errorf("paramspace: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	if after := snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("shared cache view changed under the generators:\nbefore %v\nafter  %v", before, after)
	}
}
