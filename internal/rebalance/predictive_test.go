package rebalance

import (
	"context"
	"testing"
	"time"

	"legion/internal/classobj"
	"legion/internal/collection/daemon"
	"legion/internal/nws"
	"legion/internal/proto"
	"legion/internal/scheduler"
)

// TestPredictiveDegradesToLeastLoadedWithoutHistory is the differential
// contract: on a fleet whose records carry no $host_load_history (no
// daemon publishing, or HistoryLen disabled), Predictive's forecast of
// every host is its instantaneous load, so — below the watermark — it
// must plan exactly the moves LeastLoaded plans.
func TestPredictiveDegradesToLeastLoadedWithoutHistory(t *testing.T) {
	ctx := context.Background()
	plans := make([][]Move, 2)
	for i, policy := range []Policy{
		&LeastLoaded{MaxShedPerEvent: 2},
		&Predictive{MaxShedPerEvent: 2, Watermark: 0.9},
	} {
		ms := buildMeta(t, 4, 2)
		c := ms.DefineClass("Worker", nil)
		insts, p, err := c.CreateInstance(ctx, 2, nil, nil)
		if err != nil || len(insts) != 2 {
			t.Fatalf("create: %v %v", insts, err)
		}
		src := p.Host
		// A deterministic load spread, all below the watermark so the
		// predictive destination filter keeps every candidate.
		for j, h := range ms.Hosts() {
			if h.LOID() == src {
				h.SetExternalLoad(0.85)
			} else {
				h.SetExternalLoad(0.1 * float64(j+1))
			}
		}
		ms.ReassessAll(ctx)

		moves, err := policy.Plan(ctx, proto.NotifyArgs{Source: src}, ms, []*classobj.Class{c})
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = moves
		ms.Close()
	}
	// Same seed builds identical metasystems, so the LOIDs align.
	if len(plans[0]) != len(plans[1]) || len(plans[0]) == 0 {
		t.Fatalf("plan sizes differ: least-loaded %d, predictive %d", len(plans[0]), len(plans[1]))
	}
	for i := range plans[0] {
		ll, pr := plans[0][i], plans[1][i]
		if ll.Instance != pr.Instance || ll.ToHost != pr.ToHost || ll.ToVault != pr.ToVault {
			t.Errorf("move %d differs: least-loaded %+v, predictive %+v", i, ll, pr)
		}
	}
}

// TestPredictiveRanksByForecastNotCurrentLoad: two destinations — one
// spiky (momentarily idle, but its recent history says it runs warm)
// and one steady. LeastLoaded would pick the spiky host (lowest
// instantaneous load); Predictive must rank by the window-mean forecast
// and pick the steady one.
func TestPredictiveRanksByForecastNotCurrentLoad(t *testing.T) {
	ctx := context.Background()
	ms := buildMeta(t, 3, 1)
	c := ms.DefineClass("Worker", nil)
	insts, p, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := p.Host

	// Publish histories through the daemon so the policy sees exactly
	// what production sees.
	d := ms.NewDaemon(daemon.Config{Interval: time.Second, HistoryLen: 8})
	hosts := ms.Hosts()
	spikyIdx, steadyIdx := -1, -1
	for i, h := range hosts {
		if h.LOID() == src {
			continue
		}
		if spikyIdx < 0 {
			spikyIdx = i
		} else {
			steadyIdx = i
		}
	}
	series := [][]float64{
		{0.7, 0.7, 0.7, 0.1},     // spiky: idle this instant, warm on average
		{0.35, 0.35, 0.35, 0.35}, // steady
	}
	for s := 0; s < len(series[0]); s++ {
		for _, h := range hosts {
			switch {
			case h.LOID() == src:
				h.SetExternalLoad(0.9)
			case h == hosts[spikyIdx]:
				h.SetExternalLoad(series[0][s])
			default:
				h.SetExternalLoad(series[1][s])
			}
		}
		ms.ReassessAll(ctx)
		d.Sweep(ctx)
	}

	pol := &Predictive{Watermark: 0.8, Predictor: nws.WindowMean{K: 4}}
	moves, err := pol.Plan(ctx, proto.NotifyArgs{Source: src}, ms, []*classobj.Class{c})
	if err != nil || len(moves) != 1 {
		t.Fatalf("plan: %v %v", moves, err)
	}
	if moves[0].ToHost != hosts[steadyIdx].LOID() {
		t.Errorf("predictive chose %v (the spiky host?); want steady host %v",
			moves[0].ToHost, hosts[steadyIdx].LOID())
	}
	if moves[0].Instance != insts[0] {
		t.Errorf("victim = %v, want %v", moves[0].Instance, insts[0])
	}

	// The reactive ranking really would have differed: the spiky host
	// has the lower instantaneous load.
	infos, _, err := scheduler.QueryHostsPartial(ctx, ms.Env(), "defined($host_load)")
	if err != nil {
		t.Fatal(err)
	}
	var spikyLoad, steadyLoad float64
	for _, hi := range infos {
		switch hi.LOID {
		case hosts[spikyIdx].LOID():
			spikyLoad = hi.Load
		case hosts[steadyIdx].LOID():
			steadyLoad = hi.Load
		}
	}
	if spikyLoad >= steadyLoad {
		t.Fatalf("test premise broken: spiky load %v >= steady load %v", spikyLoad, steadyLoad)
	}
	ms.Close()
}

// TestForecastScanShedsBeforeOverload drives the proactive loop end to
// end: no overload trigger ever fires (the source never crosses the
// reactive threshold during the test), yet the forecast scan sees the
// rising published history, synthesizes a ForecastTrigger event, and
// the instance moves off the heating host through the normal damped
// machinery.
func TestForecastScanShedsBeforeOverload(t *testing.T) {
	ctx := context.Background()
	ms := buildMeta(t, 3, 1)
	c := ms.DefineClass("Worker", nil)
	insts, p, err := c.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, src := insts[0], p.Host

	d := ms.NewDaemon(daemon.Config{Interval: time.Second, HistoryLen: 8})
	pol := &Predictive{Watermark: 0.8, Predictor: nws.Trend{K: 4}}
	r := New(ms, Config{Classes: []*classobj.Class{c}, Policy: pol, Cooldown: -1})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// The source ramps 0.3 → 0.75 — below the watermark throughout —
	// but the trend extrapolation crosses 0.8 while the current load is
	// still 0.75: the scan must shed on the ramp, before the 0.85
	// sample ever becomes the present. Feed the ramp and scan after
	// each sweep.
	for s, load := range []float64{0.3, 0.45, 0.6, 0.75, 0.85} {
		for _, h := range ms.Hosts() {
			if h.LOID() == src {
				h.SetExternalLoad(load)
			} else {
				h.SetExternalLoad(0.2)
			}
		}
		ms.ReassessAll(ctx)
		d.Sweep(ctx)
		r.forecastScan(ctx, pol)
		hL, _, err := c.WhereIs(inst)
		if err != nil {
			t.Fatal(err)
		}
		if hL != src {
			// Shed must land before the 0.85 sample is current: the
			// whole point of predicting.
			if load >= 0.85 {
				t.Errorf("migration only after the source was already hot (step %d)", s)
			}
			reg := ms.Runtime().Metrics()
			if n := reg.CounterValue("legion_rebalance_migrations_total", "result", "ok"); n < 1 {
				t.Errorf("migrations ok counter = %d", n)
			}
			if a := ms.AuditMigrations(c); !a.Clean() {
				t.Errorf("audit: %v", a)
			}
			ms.Close()
			return
		}
	}
	t.Fatal("forecast scan never shed the heating host")
}
