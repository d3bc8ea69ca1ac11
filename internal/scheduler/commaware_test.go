package scheduler

import (
	"context"
	"slices"
	"testing"
	"time"

	"legion/internal/classobj"
	"legion/internal/collection"
	"legion/internal/collection/daemon"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/netobj"
	"legion/internal/orb"
	"legion/internal/resilient"
	"legion/internal/sched"
	"legion/internal/vault"
)

// multiZoneEnv builds hosts across zones; links joins WAN link records.
type multiZoneEnv struct {
	rt     *orb.Runtime
	coll   *collection.Collection
	class  *classobj.Class
	zoneOf map[loid.LOID]string
	env    *Env
}

func newMultiZone(t *testing.T, hostsPerZone int, zones ...string) *multiZoneEnv {
	t.Helper()
	rt := orb.NewRuntime("uva")
	coll := collection.New(rt, nil)
	e := &multiZoneEnv{rt: rt, coll: coll, zoneOf: map[loid.LOID]string{}}
	for _, z := range zones {
		v := vault.New(rt, vault.Config{Zone: z})
		for i := 0; i < hostsPerZone; i++ {
			h := host.New(rt, host.Config{
				Arch: "x86", OS: "Linux", CPUs: 8, MemoryMB: 1024, Zone: z,
				MaxShared: 1024,
				Vaults:    []loid.LOID{v.LOID()},
			})
			coll.Join(h.LOID(), h.Attributes(), "")
			e.zoneOf[h.LOID()] = z
		}
	}
	e.class = classobj.New(rt, classobj.Config{Name: "Cell"})
	e.env = &Env{RT: rt, Collection: coll.LOID()}
	return e
}

// links joins za-zb and zb-zc at 5 ms and za-zc at zaZC ms to the
// Collection as link records, and returns them.
func (e *multiZoneEnv) links(t *testing.T, zaZC float64) []*netobj.Link {
	t.Helper()
	ls := []*netobj.Link{
		netobj.NewLink(e.rt, "za", "zb", 5, 1000),
		netobj.NewLink(e.rt, "zb", "zc", 5, 1000),
		netobj.NewLink(e.rt, "za", "zc", zaZC, 10),
	}
	for _, l := range ls {
		if err := e.coll.Join(l.LOID(), l.Attributes(), ""); err != nil {
			t.Fatal(err)
		}
	}
	return ls
}

// zoneChain is the sequence of zones down the rows of a stencil schedule,
// each run of one zone counted once.
func (e *multiZoneEnv) zoneChain(rl sched.RequestList, rows, cols int) []string {
	maps := rl.Masters[0].Mappings
	var seq []string
	for r := 0; r < rows; r++ {
		z := e.zoneOf[maps[r*cols].Host]
		if len(seq) == 0 || seq[len(seq)-1] != z {
			seq = append(seq, z)
		}
	}
	return seq
}

func (e *multiZoneEnv) req(n int) Request {
	return Request{
		Classes: []ClassRequest{{Class: e.class.LOID(), Count: n}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
}

func TestCommAwareKeepsBandsZoneContiguous(t *testing.T) {
	e := newMultiZone(t, 2, "za", "zb", "zc")
	// WAN: za-zb close, zb-zc close, za-zc far. The greedy chain should
	// visit za, zb, zc so no band boundary pays the za-zc latency.
	e.links(t, 100)
	const rows, cols = 6, 6
	rl, err := CommAware{Rows: rows, Cols: cols}.Generate(
		context.Background(), e.env, e.req(rows*cols))
	if err != nil {
		t.Fatal(err)
	}
	// Zone sequence down the rows must be contiguous (each zone appears
	// as one run).
	zoneSeq := e.zoneChain(rl, rows, cols)
	seen := map[string]bool{}
	for _, z := range zoneSeq {
		if seen[z] {
			t.Fatalf("zone %s split into non-contiguous bands: %v", z, zoneSeq)
		}
		seen[z] = true
	}
	// And the chain never puts za adjacent to zc.
	for i := 1; i < len(zoneSeq); i++ {
		if (zoneSeq[i-1] == "za" && zoneSeq[i] == "zc") ||
			(zoneSeq[i-1] == "zc" && zoneSeq[i] == "za") {
			t.Errorf("expensive za-zc boundary in chain %v", zoneSeq)
		}
	}
}

func TestCommAwareBeatsStencilOnWeightedCut(t *testing.T) {
	// Hosts with varied CPU counts so Stencil's capacity ordering
	// interleaves zones, while CommAware groups by zone chain.
	rt := orb.NewRuntime("uva")
	coll := collection.New(rt, nil)
	e := &multiZoneEnv{rt: rt, coll: coll, zoneOf: map[loid.LOID]string{}}
	cpusByZone := map[string][]int{"za": {16, 2}, "zb": {12, 4}, "zc": {8, 6}}
	for _, z := range []string{"za", "zb", "zc"} {
		v := vault.New(rt, vault.Config{Zone: z})
		for _, cpus := range cpusByZone[z] {
			h := host.New(rt, host.Config{
				Arch: "x86", OS: "Linux", CPUs: cpus, MemoryMB: 1024, Zone: z,
				MaxShared: 1024, Vaults: []loid.LOID{v.LOID()},
			})
			coll.Join(h.LOID(), h.Attributes(), "")
			e.zoneOf[h.LOID()] = z
		}
	}
	e.class = classobj.New(rt, classobj.Config{Name: "Cell"})
	e.env = &Env{RT: rt, Collection: coll.LOID()}
	e.links(t, 100)
	recs, err := coll.Query(netobj.Query)
	if err != nil {
		t.Fatal(err)
	}
	lat := netobj.LatenciesOf(recs)
	const rows, cols = 9, 6
	ctx := context.Background()
	zoneOf := func(l loid.LOID) string { return e.zoneOf[l] }

	stencilRL, err := Stencil{Rows: rows, Cols: cols}.Generate(ctx, e.env, e.req(rows*cols))
	if err != nil {
		t.Fatal(err)
	}
	commRL, err := CommAware{Rows: rows, Cols: cols}.Generate(ctx, e.env, e.req(rows*cols))
	if err != nil {
		t.Fatal(err)
	}
	stencilCut := WeightedEdgeCut(AssignmentOf(stencilRL.Masters[0].Mappings), rows, cols, zoneOf, lat)
	commCut := WeightedEdgeCut(AssignmentOf(commRL.Masters[0].Mappings), rows, cols, zoneOf, lat)
	if commCut > stencilCut {
		t.Errorf("comm-aware weighted cut %v > stencil %v", commCut, stencilCut)
	}
	// Unweighted cuts are comparable (same band count): the win comes
	// from zone placement, not fewer boundaries.
	if commCut <= 0 {
		t.Errorf("weighted cut should be positive: %v", commCut)
	}
}

func TestCommAwareValidation(t *testing.T) {
	e := newMultiZone(t, 1, "za")
	if _, err := (CommAware{Rows: 0, Cols: 2}).Generate(context.Background(), e.env, e.req(0)); err == nil {
		t.Error("bad dims accepted")
	}
	if _, err := (CommAware{Rows: 2, Cols: 2}).Generate(context.Background(), e.env, e.req(3)); err == nil {
		t.Error("count mismatch accepted")
	}
}

func TestWeightedEdgeCutKnownCase(t *testing.T) {
	lat := netobj.Latencies{{"za", "zb"}: 10}
	a := loid.LOID{Domain: "d", Class: "H", Instance: 1} // za
	b := loid.LOID{Domain: "d", Class: "H", Instance: 2} // za
	c := loid.LOID{Domain: "d", Class: "H", Instance: 3} // zb
	zoneOf := func(l loid.LOID) string {
		if l == c {
			return "zb"
		}
		return "za"
	}
	// 3x1 column: a,b,c. Edges: a-b (intra-zone cut, 0.1), b-c (10).
	got := WeightedEdgeCut([]loid.LOID{a, b, c}, 3, 1, zoneOf, lat)
	if got != 10.1 {
		t.Errorf("weighted cut = %v, want 10.1", got)
	}
}

func TestChainZones(t *testing.T) {
	lat := netobj.Latencies{{"za", "zc"}: 5, {"zb", "zc"}: 5, {"za", "zb"}: 90}
	got := chainZones([]string{"za", "zb", "zc"}, lat)
	want := []string{"za", "zc", "zb"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v, want %v", got, want)
		}
	}
	// No links or short lists pass through.
	if out := chainZones([]string{"zb", "za"}, nil); out[0] != "zb" {
		t.Errorf("short chain: %v", out)
	}
	if out := chainZones([]string{"za", "zb", "zc"}, nil); !slices.Equal(out, []string{"za", "zb", "zc"}) {
		t.Errorf("chain without links: %v", out)
	}
}

// TestLinkObservedBySweep drives a link change through the Data
// Collection Daemon: CommAware reads the Collection, so the zone chain
// moves at the sweep after Observe and not before.
func TestLinkObservedBySweep(t *testing.T) {
	e := newMultiZone(t, 2, "za", "zb", "zc")
	ls := e.links(t, 50)
	d := daemon.New(e.rt, daemon.Config{})
	for _, l := range ls {
		d.Watch(l.LOID())
	}
	d.PushInto(e.coll.LOID())
	const rows, cols = 6, 6
	chain := func() []string {
		t.Helper()
		rl, err := CommAware{Rows: rows, Cols: cols}.Generate(context.Background(), e.env, e.req(rows*cols))
		if err != nil {
			t.Fatal(err)
		}
		return e.zoneChain(rl, rows, cols)
	}
	want := []string{"za", "zb", "zc"}
	if got := chain(); !slices.Equal(got, want) {
		t.Fatalf("before: chain %v, want %v", got, want)
	}
	ls[0].Observe(90, 10) // za-zb degrades past za-zc's 50 ms
	if got := chain(); !slices.Equal(got, want) {
		t.Fatalf("before the sweep: chain %v, want %v", got, want)
	}
	d.Sweep(context.Background())
	want = []string{"za", "zc", "zb"}
	if got := chain(); !slices.Equal(got, want) {
		t.Errorf("after the sweep: chain %v, want %v", got, want)
	}
}

// TestDownLinkLeavesChain: a link that stops answering is flagged down
// by the Data Collection Daemon's sweeps, and from then on CommAware
// charges its zone pair as if no link joined it.
func TestDownLinkLeavesChain(t *testing.T) {
	e := newMultiZone(t, 2, "za", "zb", "zc")
	ls := e.links(t, 50)
	d := daemon.New(e.rt, daemon.Config{Retry: resilient.Policy{MaxAttempts: 1}})
	for _, l := range ls {
		d.Watch(l.LOID())
	}
	d.PushInto(e.coll.LOID())
	const rows, cols = 6, 6
	chain := func() []string {
		t.Helper()
		rl, err := CommAware{Rows: rows, Cols: cols}.Generate(context.Background(), e.env, e.req(rows*cols))
		if err != nil {
			t.Fatal(err)
		}
		return e.zoneChain(rl, rows, cols)
	}
	ctx := context.Background()
	d.Sweep(ctx)
	want := []string{"za", "zb", "zc"}
	if got := chain(); !slices.Equal(got, want) {
		t.Fatalf("all links up: chain %v, want %v", got, want)
	}
	// za-zb stops answering; its record keeps its last 5 ms.
	dead := ls[0].LOID()
	e.rt.SetFaultInjector(func(target loid.LOID, _ string) error {
		if target == dead {
			return orb.ErrInjectedFault
		}
		return nil
	})
	d.Sweep(ctx) // failure 1 of 2: not yet flagged
	if got := chain(); !slices.Equal(got, want) {
		t.Fatalf("one failed probe: chain %v, want %v", got, want)
	}
	d.Sweep(ctx) // failure 2 of 2: flagged down
	if recs, err := e.coll.Query(`$host_alive == false`); err != nil || len(recs) != 1 || recs[0].Member != dead {
		t.Fatalf("records flagged down: %v, %v; want the za-zb link", recs, err)
	}
	want = []string{"za", "zc", "zb"} // za-zb now costs 200 ms, za-zc 50
	if got := chain(); !slices.Equal(got, want) {
		t.Errorf("link flagged down: chain %v, want %v", got, want)
	}
}
