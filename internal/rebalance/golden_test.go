package rebalance

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"legion/internal/classobj"
	"legion/internal/collection/daemon"
	"legion/internal/core"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/nws"
	"legion/internal/proto"
	"legion/internal/telemetry"
	"legion/internal/vault"
)

// goldenMoves holds the sha256 of every policy arm's []Move as planned
// by the commit BEFORE the shared ranker existed (0b9f28b: three Plan
// bodies over rankCandidates / rankCandidatesBy / rankPreserveSpotOrder).
// The refactor is correct iff none of these move; do not edit them to
// make a change pass.
var goldenMoves = map[string]string{
	"no-history/least-loaded-1":             "87bd3deaf68c541b2ba5df84cb936eb2fd3d625a2697ae9c271497fec7f189ff",
	"no-history/least-loaded-4":             "540c65a8c7ca1a2670390aa82c683651d70417c7d75b2e7a152476bf479cd07d",
	"no-history/least-loaded-all":           "f85ce2ac00ef663cb9351074ce33bef107c6930f4a16618d12f82aafd67c86dc",
	"no-history/least-loaded-live-fallback": "540c65a8c7ca1a2670390aa82c683651d70417c7d75b2e7a152476bf479cd07d",
	"no-history/least-loaded-idle-source":   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"no-history/predictive-default":         "87bd3deaf68c541b2ba5df84cb936eb2fd3d625a2697ae9c271497fec7f189ff",
	"no-history/predictive-4":               "eee37d37a96f430395a6e9c97b81effc1143eeb38d85e5628c18e1e4a999a3cb",
	"no-history/predictive-all-hot":         "f111fe8353232a6f495f9b912cc3d85de2fbaca1aa945431dbde79439dab50ef",
	"no-history/predictive-window-mean":     "fd041f559fd6470548edcc567099a09d118c6dfc2cb15c6618caf878ff8e9c65",
	"no-history/predictive-trend":           "f85ce2ac00ef663cb9351074ce33bef107c6930f4a16618d12f82aafd67c86dc",
	"history/least-loaded-1":                "87bd3deaf68c541b2ba5df84cb936eb2fd3d625a2697ae9c271497fec7f189ff",
	"history/least-loaded-4":                "540c65a8c7ca1a2670390aa82c683651d70417c7d75b2e7a152476bf479cd07d",
	"history/least-loaded-all":              "f85ce2ac00ef663cb9351074ce33bef107c6930f4a16618d12f82aafd67c86dc",
	"history/least-loaded-live-fallback":    "540c65a8c7ca1a2670390aa82c683651d70417c7d75b2e7a152476bf479cd07d",
	"history/least-loaded-idle-source":      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"history/predictive-default":            "87bd3deaf68c541b2ba5df84cb936eb2fd3d625a2697ae9c271497fec7f189ff",
	"history/predictive-4":                  "805a2057cdc445f746aab5d383d9a3a4412839c548be86c5e2bdcfbfab4d0295",
	"history/predictive-all-hot":            "e8598e28dd70ad773a22632702e5ca09267aff184cf6381329588cc4d39c73b4",
	"history/predictive-window-mean":        "43f6b12879e81e562039e5952640df099f0274597d3060309f03c91923d10da7",
	"history/predictive-trend":              "7d1fa0377a250d43567a7d54100cf54cbabf59337551a81ec0b5db1f749171f3",
}

// TestPolicyGoldenMoves pins the two rebalance policies decision for
// decision on one heterogeneous metasystem: four vaults over three
// zones, destinations with tied loads, one
// destination that reaches no vault, six victims spread over two of the
// source's vaults. The arms run first on a history-less Collection, then
// again after a daemon has published eight sweeps of $host_load_history.
func TestPolicyGoldenMoves(t *testing.T) {
	ctx := context.Background()
	ms := core.New("uva", core.Options{Seed: 11, Metrics: telemetry.NewRegistry()})
	defer ms.Close()
	vA := ms.AddVault(vault.Config{Zone: "za"}).LOID()
	vB := ms.AddVault(vault.Config{Zone: "za"}).LOID()
	vC := ms.AddVault(vault.Config{Zone: "zb"}).LOID()
	vD := ms.AddVault(vault.Config{Zone: "zc"}).LOID()

	type spec struct {
		zone   string
		vaults []loid.LOID
		load   float64   // instantaneous load the no-history arms see
		ramp   []float64 // per-sweep loads for the history arms
	}
	specs := []spec{
		{zone: "za", vaults: []loid.LOID{vA, vB}, load: 0.95, ramp: []float64{0.5, 0.6, 0.7, 0.95}}, // source
		{zone: "zb", vaults: []loid.LOID{vC}, load: 0.10, ramp: []float64{0.8, 0.8, 0.8, 0.10}},     // coolest now, warm on average
		{zone: "za", vaults: []loid.LOID{vB, vA}, load: 0.30, ramp: []float64{0.3, 0.3, 0.3, 0.30}}, // reaches both source vaults
		{zone: "za", vaults: []loid.LOID{vD}, load: 0.30, ramp: []float64{0.1, 0.2, 0.3, 0.30}},     // same zone, other vault; rising
		{zone: "zc", vaults: []loid.LOID{vD, vA}, load: 0.50, ramp: []float64{0.5, 0.5, 0.5, 0.50}}, // reaches vA from afar
		{zone: "zb", vaults: []loid.LOID{vC, vB}, load: 0.20, ramp: []float64{0.6, 0.5, 0.4, 0.20}}, // reaches vB; cooling
		{zone: "za", vaults: []loid.LOID{vA}, load: 0.70, ramp: []float64{0.2, 0.2, 0.2, 0.70}},     // hot now, cool on average
		{zone: "zc", vaults: []loid.LOID{vD}, load: 0.10, ramp: []float64{0.1, 0.1, 0.1, 0.10}},     // ties host 1 on load
		{zone: "zb", vaults: nil, load: 0.00, ramp: []float64{0, 0, 0, 0}},                          // no vault: never a destination
		{zone: "za", vaults: []loid.LOID{vB}, load: 0.30, ramp: []float64{0.9, 0.9, 0.9, 0.30}},     // ties 2 and 3 on load
	}
	hosts := make([]*host.Host, len(specs))
	for i, s := range specs {
		hosts[i] = ms.AddHost(host.Config{
			Arch: "x86", OS: "Linux", CPUs: 8, MemoryMB: 1024, Zone: s.zone,
			Price: 0.1 * float64(i+1), Vaults: s.vaults,
		})
	}
	src := hosts[0]

	c := ms.DefineClass("Worker", nil)
	insts, _, err := c.CreateInstance(ctx, 6, nil, nil)
	if err != nil || len(insts) != 6 {
		t.Fatalf("create: %v %v", insts, err)
	}
	for i, inst := range insts {
		v := vA
		if i%3 == 2 {
			v = vB
		}
		if err := ms.Migrate(ctx, c, inst, src.LOID(), v); err != nil {
			t.Fatalf("pin %v: %v", inst, err)
		}
	}
	setLoads := func(step int) {
		for i, h := range hosts {
			if step < 0 {
				h.SetExternalLoad(specs[i].load)
			} else {
				h.SetExternalLoad(specs[i].ramp[step])
			}
		}
		ms.ReassessAll(ctx)
	}
	setLoads(-1)

	classes := []*classobj.Class{c}
	check := func(name string, p Policy, source loid.LOID) {
		t.Helper()
		moves, err := p.Plan(ctx, proto.NotifyArgs{Source: source, Trigger: "overload"}, ms, classes)
		h := sha256.New()
		if err != nil {
			fmt.Fprintf(h, "error: %v\n", err)
		}
		for _, m := range moves {
			fmt.Fprintf(h, "%v %v -> %v %v\n", m.Class.LOID(), m.Instance, m.ToHost, m.ToVault)
		}
		got := hex.EncodeToString(h.Sum(nil))
		want, ok := goldenMoves[name]
		if !ok {
			t.Errorf("unrecorded arm (%d moves):\t%q: %q,", len(moves), name, got)
			return
		}
		if got != want {
			t.Errorf("%s: moves hash %s, want %s (%d moves)", name, got, want, len(moves))
		}
	}
	arms := func(phase string) {
		check(phase+"/least-loaded-1", NewLeastLoaded(), src.LOID())
		check(phase+"/least-loaded-4", &LeastLoaded{MaxShedPerEvent: 4}, src.LOID())
		check(phase+"/least-loaded-all", &LeastLoaded{MaxShedPerEvent: 16}, src.LOID())
		check(phase+"/least-loaded-live-fallback", &LeastLoaded{MaxShedPerEvent: 4, Query: "$host_load > 100"}, src.LOID())
		check(phase+"/least-loaded-idle-source", NewLeastLoaded(), hosts[7].LOID())
		check(phase+"/predictive-default", &Predictive{MaxShedPerEvent: 1}, src.LOID())
		check(phase+"/predictive-4", &Predictive{MaxShedPerEvent: 4, Watermark: 0.45}, src.LOID())
		check(phase+"/predictive-all-hot", &Predictive{MaxShedPerEvent: 5, Watermark: 0.01}, src.LOID())
		check(phase+"/predictive-window-mean", &Predictive{MaxShedPerEvent: 6, Watermark: 0.6, Predictor: nws.WindowMean{K: 4}}, src.LOID())
		check(phase+"/predictive-trend", &Predictive{MaxShedPerEvent: 6, Watermark: 0.9, Predictor: nws.Trend{K: 4}}, src.LOID())
	}
	arms("no-history")

	d := ms.NewDaemon(daemon.Config{Interval: time.Second, HistoryLen: 8})
	for round := 0; round < 2; round++ {
		for step := range specs[0].ramp {
			setLoads(step)
			d.Sweep(ctx)
		}
	}
	arms("history")

}
