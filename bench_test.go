// Package legion_test holds the benchmark harness: one testing.B
// benchmark per paper artifact (see DESIGN.md §5 and EXPERIMENTS.md).
// Custom quality metrics (success rates, lookup counts, edge cuts) are
// attached with b.ReportMetric so `go test -bench` output carries the
// reproduction's shape results alongside time/op.
//
// The printable experiment tables behind these benchmarks are generated
// by `go run ./cmd/legion-bench`.
package legion_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/classobj"
	"legion/internal/collection"
	"legion/internal/core"
	"legion/internal/enactor"
	"legion/internal/experiments"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/nws"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/query"
	"legion/internal/reservation"
	"legion/internal/resilient"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
	"legion/internal/telemetry"
	"legion/internal/vault"
)

// buildBenchSystem assembles n hosts with one vault and a Worker class.
func buildBenchSystem(b *testing.B, nHosts, maxShared int) (*core.Metasystem, loid.LOID) {
	b.Helper()
	ms := core.New("uva", core.Options{Seed: 1})
	v := ms.AddVault(vault.Config{Zone: "z1"})
	for i := 0; i < nHosts; i++ {
		ms.AddHost(host.Config{
			Arch: "x86", OS: "Linux", OSVersion: "2.2",
			CPUs: 8, MemoryMB: 1024, Zone: "z1",
			MaxShared: maxShared,
			Vaults:    []loid.LOID{v.LOID()},
		})
	}
	class := ms.DefineClass("Worker", nil)
	return ms, class.LOID()
}

func shareSpec() sched.ReservationSpec {
	return sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour}
}

// BenchmarkTable1_HostInterfaceOps measures the Table 1 reservation-
// management ops (make/check/cancel) as one negotiation round trip.
func BenchmarkTable1_HostInterfaceOps(b *testing.B) {
	ms, _ := buildBenchSystem(b, 1, 0)
	defer ms.Close()
	h := ms.Hosts()[0]
	v := ms.Vaults()[0].LOID()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok, err := h.MakeReservation(ctx, proto.MakeReservationArgs{
			Vault: v, Type: reservation.ReusableTimesharing, Duration: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := h.CheckReservation(&tok); err != nil {
			b.Fatal(err)
		}
		if err := h.CancelReservation(&tok); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_StartKillObject measures the Table 1 process-management
// path: startObject + killObject per iteration.
func BenchmarkTable1_StartKillObject(b *testing.B) {
	ms, classL := buildBenchSystem(b, 1, 0)
	defer ms.Close()
	h := ms.Hosts()[0]
	v := ms.Vaults()[0].LOID()
	ctx := context.Background()
	tok, err := h.MakeReservation(ctx, proto.MakeReservationArgs{
		Vault: v, Type: reservation.ReusableTimesharing, Duration: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := ms.Runtime().Mint("Worker")
		if _, err := h.StartObject(ctx, proto.StartObjectArgs{
			Token: tok, Class: classL, Instances: []loid.LOID{inst},
		}); err != nil {
			b.Fatal(err)
		}
		if err := h.KillObject(ctx, inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_ReservationTypes measures token issue+verify for each
// Table 2 reservation class (the non-forgeable token machinery).
func BenchmarkTable2_ReservationTypes(b *testing.B) {
	for _, ty := range []reservation.Type{
		reservation.OneShotSpaceSharing,
		reservation.ReusableSpaceSharing,
		reservation.OneShotTimesharing,
		reservation.ReusableTimesharing,
	} {
		b.Run(ty.String(), func(b *testing.B) {
			signer := reservation.NewSigner()
			hostL := loid.LOID{Domain: "uva", Class: "Host", Instance: 1}
			vaultL := loid.LOID{Domain: "uva", Class: "Vault", Instance: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok := reservation.Token{ID: uint64(i), Host: hostL, Vault: vaultL,
					Type: ty, Duration: time.Hour}
				signer.Sign(&tok)
				if !signer.Valid(&tok) {
					b.Fatal("token invalid")
				}
			}
		})
	}
}

// BenchmarkFig1_CoreObjectTree measures building the Figure 1 hierarchy:
// a metasystem with classes, hosts, vaults, and the Collection joined.
func BenchmarkFig1_CoreObjectTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, _ := buildBenchSystem(b, 8, 0)
		ms.Close()
	}
}

// BenchmarkFig2_Layerings measures one placement through each Figure 2
// layering scheme (see experiments.Fig2Layerings for the definitions).
func BenchmarkFig2_Layerings(b *testing.B) {
	// The experiment table runner measures all four; here each gets its
	// own sub-benchmark over the (d) full path and the (a) direct path,
	// the two extremes of the continuum.
	b.Run("a-direct", func(b *testing.B) {
		ms, classL := buildBenchSystem(b, 8, 0)
		defer ms.Close()
		class, _ := ms.Class("Worker")
		_ = classL
		ctx := context.Background()
		h := ms.Hosts()[0]
		v := ms.Vaults()[0].LOID()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ms.Runtime().Call(ctx, h.LOID(), proto.MethodMakeReservation,
				proto.MakeReservationArgs{Vault: v, Type: reservation.ReusableTimesharing,
					Duration: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			tok := res.(proto.MakeReservationReply).Token
			insts, _, err := class.CreateInstance(ctx, 1, &proto.Placement{
				Host: h.LOID(), Vault: v, Token: tok}, nil)
			if err != nil {
				b.Fatal(err)
			}
			class.DestroyInstance(ctx, insts[0])
			// Reusable reservations outlive their objects; release so the
			// admission table does not fill over b.N iterations.
			if err := h.CancelReservation(&tok); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("d-full-pipeline", func(b *testing.B) {
		ms, classL := buildBenchSystem(b, 8, 0)
		defer ms.Close()
		class, _ := ms.Class("Worker")
		ctx := context.Background()
		req := scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: classL, Count: 1}},
			Res:     shareSpec(),
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := ms.PlaceApplication(ctx, scheduler.LoadAware{}, req)
			if err != nil {
				b.Fatal(err)
			}
			for _, insts := range out.Instances {
				for _, inst := range insts {
					class.DestroyInstance(ctx, inst)
				}
			}
			ms.Enactor.CancelReservations(ctx, out.RequestID)
		}
	})
}

// BenchmarkFig3_PlacementPipeline measures the full Figure 3 pipeline
// latency for a k-object application.
func BenchmarkFig3_PlacementPipeline(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("objects=%d", k), func(b *testing.B) {
			ms, classL := buildBenchSystem(b, 8, 0)
			defer ms.Close()
			class, _ := ms.Class("Worker")
			ctx := context.Background()
			req := scheduler.Request{
				Classes: []scheduler.ClassRequest{{Class: classL, Count: k}},
				Res:     shareSpec(),
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := ms.PlaceApplication(ctx, scheduler.IRS{NSched: 3}, req)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for _, insts := range out.Instances {
					for _, inst := range insts {
						class.DestroyInstance(ctx, inst)
					}
				}
				ms.Enactor.CancelReservations(ctx, out.RequestID)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkFig4_CollectionOps measures Collection query throughput at
// several sizes, including the paper's IRIX example.
func BenchmarkFig4_CollectionOps(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("records=%d", size), func(b *testing.B) {
			rt := orb.NewRuntime("uva")
			c := collection.New(rt, nil)
			for i := 0; i < size; i++ {
				os, ver := "Linux", "2.2"
				if i%5 == 0 {
					os, ver = "IRIX", "5.3"
				}
				c.Join(loid.LOID{Domain: "uva", Class: "Host", Instance: uint64(i + 1)},
					[]attr.Pair{
						{Name: "host_os_name", Value: attr.String(os)},
						{Name: "host_os_version", Value: attr.String(ver)},
						{Name: "host_load", Value: attr.Float(float64(i%100) / 100)},
					}, "")
			}
			q := `match("IRIX", $host_os_name) and match("5\..*", $host_os_version)`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := c.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) != size/5+boolToInt(size%5 != 0) {
					// size divisible by 5 here, so exact match expected.
					_ = recs
				}
			}
		})
	}
}

func boolToInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// BenchmarkFig5_VariantSelection measures the bitmap-based next-variant
// selection against the naive replacement-list scan.
func BenchmarkFig5_VariantSelection(b *testing.B) {
	const mappings = 64
	const variants = 256
	rng := rand.New(rand.NewSource(5))
	m := sched.Master{}
	mk := func(h uint64) sched.Mapping {
		return sched.Mapping{
			Class: loid.LOID{Domain: "d", Class: "C", Instance: 1},
			Host:  loid.LOID{Domain: "d", Class: "H", Instance: h},
			Vault: loid.LOID{Domain: "d", Class: "V", Instance: 1},
		}
	}
	for i := 0; i < mappings; i++ {
		m.Mappings = append(m.Mappings, mk(uint64(i+1)))
	}
	for v := 0; v < variants; v++ {
		var vr sched.Variant
		vr.AddReplacement(rng.Intn(mappings), mk(uint64(1000+v)))
		m.Variants = append(m.Variants, vr)
	}
	failed := sched.NewBitmap(mappings)
	failed.Set(mappings - 1)

	b.Run("bitmap", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += m.NextVariant(0, failed)
		}
		_ = sink
	})
	b.Run("list-scan", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			found := -1
			for vi := range m.Variants {
				for _, r := range m.Variants[vi].Replacements {
					if failed.Get(r.Index) {
						found = vi
						break
					}
				}
				if found >= 0 {
					break
				}
			}
			sink += found
		}
		_ = sink
	})
}

// BenchmarkFig6_EnactorProtocol measures make_reservations +
// cancel_reservations round trips at several co-allocation widths.
func BenchmarkFig6_EnactorProtocol(b *testing.B) {
	for _, width := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("mappings=%d", width), func(b *testing.B) {
			ms, classL := buildBenchSystem(b, 8, 0)
			defer ms.Close()
			ctx := context.Background()
			v := ms.Vaults()[0].LOID()
			hosts := ms.Hosts()
			var maps []sched.Mapping
			for i := 0; i < width; i++ {
				maps = append(maps, sched.Mapping{
					Class: classL, Host: hosts[i%len(hosts)].LOID(), Vault: v,
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := sched.RequestList{
					ID:      ms.Enactor.NewRequestID(),
					Masters: []sched.Master{{Mappings: maps}},
					Res:     shareSpec(),
				}
				fb := ms.Enactor.MakeReservations(ctx, req)
				if !fb.Success {
					b.Fatalf("reserve failed: %s", fb.Detail)
				}
				if err := ms.Enactor.CancelReservations(ctx, req.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7_RandomScheduler measures Figure 7 schedule generation
// (Collection query + random picks), without enactment.
func BenchmarkFig7_RandomScheduler(b *testing.B) {
	ms, classL := buildBenchSystem(b, 16, 0)
	defer ms.Close()
	env := ms.Env()
	ctx := context.Background()
	req := scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: classL, Count: 16}},
		Res:     shareSpec(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (scheduler.Random{}).Generate(ctx, env, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8_IRS measures IRS generation and reports the Collection
// lookup economy vs n independent Random generations as custom metrics.
func BenchmarkFig8_IRS(b *testing.B) {
	const n = 4
	ms, classL := buildBenchSystem(b, 16, 0)
	defer ms.Close()
	env := ms.Env()
	ctx := context.Background()
	req := scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: classL, Count: 16}},
		Res:     shareSpec(),
	}
	q0, _ := ms.Collection.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (scheduler.IRS{NSched: n}).Generate(ctx, env, req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	q1, _ := ms.Collection.Stats()
	b.ReportMetric(float64(q1-q0)/float64(b.N), "lookups/op")
	b.ReportMetric(n, "schedules/op")
}

// BenchmarkE1_SchedulerLadder measures end-to-end placement for each
// policy on the same fleet and reports modelled makespan as a metric.
func BenchmarkE1_SchedulerLadder(b *testing.B) {
	gens := []scheduler.Generator{
		scheduler.Random{},
		scheduler.IRS{NSched: 4},
		scheduler.LoadAware{},
	}
	for _, gen := range gens {
		b.Run(gen.Name(), func(b *testing.B) {
			ms := core.New("uva", core.Options{Seed: 11})
			rng := rand.New(rand.NewSource(11))
			specs := sim.RandomSpecs(rng, 10)
			for i := range specs {
				specs[i].MaxShared = 1024
			}
			fleet := sim.Build(ms, rng, specs)
			defer ms.Close()
			class := ms.DefineClass("Worker", nil)
			ctx := context.Background()
			req := scheduler.Request{
				Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 32}},
				Res:     shareSpec(),
			}
			var lastMakespan time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := ms.PlaceApplication(ctx, gen, req)
				if err != nil {
					b.Fatal(err)
				}
				lastMakespan = fleet.Makespan(out.Feedback.Resolved, 30*time.Second)
				b.StopTimer()
				for _, insts := range out.Instances {
					for _, inst := range insts {
						class.DestroyInstance(ctx, inst)
					}
				}
				ms.Enactor.CancelReservations(ctx, out.RequestID)
				b.StartTimer()
			}
			b.ReportMetric(lastMakespan.Seconds(), "makespan-s")
		})
	}
}

// BenchmarkE1_StencilEdgeCut reports the communication quality of the
// specialized stencil policy vs random on an 8x8 grid.
func BenchmarkE1_StencilEdgeCut(b *testing.B) {
	const rows, cols = 8, 8
	for _, gen := range []scheduler.Generator{
		scheduler.Random{},
		scheduler.Stencil{Rows: rows, Cols: cols},
	} {
		b.Run(gen.Name(), func(b *testing.B) {
			ms, classL := buildBenchSystem(b, 8, 1024)
			defer ms.Close()
			env := ms.Env()
			ctx := context.Background()
			req := scheduler.Request{
				Classes: []scheduler.ClassRequest{{Class: classL, Count: rows * cols}},
				Res:     shareSpec(),
			}
			cut := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rl, err := gen.Generate(ctx, env, req)
				if err != nil {
					b.Fatal(err)
				}
				cut = scheduler.EdgeCut(scheduler.AssignmentOf(rl.Masters[0].Mappings), rows, cols)
			}
			b.ReportMetric(float64(cut), "edge-cut")
		})
	}
}

// BenchmarkE2_ReservationContention measures reservation admission under
// load for the two sharing disciplines and reports the grant rate.
func BenchmarkE2_ReservationContention(b *testing.B) {
	for _, ty := range []reservation.Type{
		reservation.ReusableSpaceSharing,
		reservation.ReusableTimesharing,
	} {
		b.Run(ty.String(), func(b *testing.B) {
			ms, _ := buildBenchSystem(b, 8, 4)
			defer ms.Close()
			ctx := context.Background()
			hosts := ms.Hosts()
			v := ms.Vaults()[0].LOID()
			rng := rand.New(rand.NewSource(2))
			granted := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := hosts[rng.Intn(len(hosts))]
				tok, err := h.MakeReservation(ctx, proto.MakeReservationArgs{
					Vault: v, Type: ty, Duration: time.Hour,
				})
				if err == nil {
					granted++
					// Release immediately so b.N doesn't saturate the table.
					h.CancelReservation(&tok)
				}
			}
			b.ReportMetric(100*float64(granted)/float64(b.N), "grant-%")
		})
	}
}

// BenchmarkE3_MigrationPipeline measures the full migration path for a
// 64 KiB object state.
func BenchmarkE3_MigrationPipeline(b *testing.B) {
	ms, _ := buildBenchSystem(b, 2, 0)
	defer ms.Close()
	class, _ := ms.Class("Worker")
	ctx := context.Background()
	insts, p, err := class.CreateInstance(ctx, 1, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	inst := insts[0]
	if _, err := ms.Runtime().Call(ctx, inst, "set",
		[]string{"blob", string(make([]byte, 64<<10))}); err != nil {
		b.Fatal(err)
	}
	hosts := ms.Hosts()
	v := ms.Vaults()[0].LOID()
	cur := p.Host
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dest loid.LOID
		for _, h := range hosts {
			if h.LOID() != cur {
				dest = h.LOID()
				break
			}
		}
		if err := ms.Migrate(ctx, class, inst, dest, v); err != nil {
			b.Fatal(err)
		}
		cur = dest
	}
}

// BenchmarkE4_FunctionInjection measures forecast-augmented Collection
// queries vs raw ones.
func BenchmarkE4_FunctionInjection(b *testing.B) {
	rt := orb.NewRuntime("uva")
	c := collection.New(rt, nil)
	nws.InjectForecast(c, nws.WindowMean{K: 5})
	hist := make([]float64, 32)
	for i := range hist {
		hist[i] = float64(i%10) / 10
	}
	for i := 0; i < 200; i++ {
		c.Join(loid.LOID{Domain: "uva", Class: "Host", Instance: uint64(i + 1)},
			[]attr.Pair{
				{Name: "host_load", Value: attr.Float(0.5)},
				{Name: "host_load_history", Value: nws.HistoryAttr(hist)},
			}, "")
	}
	b.Run("raw-load-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Query(`$host_load < 0.6`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forecast-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Query(`forecast_load() < 0.6`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryParse measures query-language parsing (the Collection's
// per-query fixed cost).
func BenchmarkQueryParse(b *testing.B) {
	src := `match("IRIX", $host_os_name) and match("5\..*", $host_os_version) and $host_load < 0.5 or not defined($reserved)`
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOPRRoundTrip measures OPR digest+verify for a 64 KiB
// object state (the migration unit cost).
func BenchmarkOPRRoundTrip(b *testing.B) {
	obj := loid.LOID{Domain: "uva", Class: "Worker", Instance: 1}
	state := make([]byte, 64<<10)
	b.SetBytes(int64(len(state)))
	for i := 0; i < b.N; i++ {
		o, err := opr.New(obj, uint64(i), time.Time{}, state)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.State(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkORBLocalCall measures the in-process method invocation floor.
func BenchmarkORBLocalCall(b *testing.B) {
	rt := orb.NewRuntime("uva")
	obj := orb.NewServiceObject(rt.Mint("Echo"))
	obj.Handle("echo", func(_ context.Context, arg any) (any, error) { return arg, nil })
	rt.Register(obj)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Call(ctx, obj.LOID(), "echo", i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkORBRemoteCall measures the TCP method invocation cost (the
// multi-process metasystem floor).
func BenchmarkORBRemoteCall(b *testing.B) {
	server := orb.NewRuntime("uva")
	defer server.Close()
	obj := orb.NewServiceObject(server.Mint("Echo"))
	obj.Handle("echo", func(_ context.Context, arg any) (any, error) { return arg, nil })
	server.Register(obj)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	client := orb.NewRuntime("sdsc")
	defer client.Close()
	client.Bind(obj.LOID(), addr)
	ctx := context.Background()
	// Warm the connection.
	if _, err := client.Call(ctx, obj.LOID(), "echo", proto.Ack{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(ctx, obj.LOID(), "echo", proto.Ack{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA1_VariantsVsRegenerate reports the ablation's headline
// numbers as metrics (success %, cancels per placement).
func BenchmarkA1_VariantsVsRegenerate(b *testing.B) {
	b.Run("table", func(b *testing.B) {
		var tb *experiments.Table
		for i := 0; i < b.N; i++ {
			tb = experiments.A1VariantVsRegenerate(10, 3)
		}
		_ = tb
	})
}

// BenchmarkE5_NetworkObjects regenerates the comm-aware placement table
// (weighted edge cut across a 3-site topology).
func BenchmarkE5_NetworkObjects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E5NetworkObjects()
	}
}

// BenchmarkE6_MonitoredRebalancing regenerates the §3.5 closed-loop
// timeline comparison.
func BenchmarkE6_MonitoredRebalancing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E6MonitoredRebalancing(20)
	}
}

// BenchmarkPlacement measures the full negotiation pipeline with the
// telemetry layer live ("instrumented": a real registry collecting
// spans, counters, and histograms) and with it compiled to no-ops
// ("uninstrumented": telemetry.NewDisabled()). Comparing the two
// sub-benchmarks bounds the instrumentation overhead; the instrumented
// run also reports the per-stage mean latencies its histograms
// accumulated, the numbers a dashboard would read off /metrics.
func BenchmarkPlacement(b *testing.B) {
	run := func(b *testing.B, reg *telemetry.Registry) {
		ms := core.New("uva", core.Options{Seed: 1, Metrics: reg})
		defer ms.Close()
		v := ms.AddVault(vault.Config{Zone: "z1"})
		for i := 0; i < 8; i++ {
			ms.AddHost(host.Config{
				Arch: "x86", OS: "Linux", OSVersion: "2.2",
				CPUs: 8, MemoryMB: 1024, Zone: "z1",
				Vaults: []loid.LOID{v.LOID()},
			})
		}
		class := ms.DefineClass("Worker", nil)
		ctx := context.Background()
		req := scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 2}},
			Res:     shareSpec(),
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := ms.PlaceApplication(ctx, scheduler.IRS{NSched: 3}, req)
			if err != nil || !out.Success {
				b.Fatalf("placement failed: %v (%+v)", err, out)
			}
			b.StopTimer()
			for _, insts := range out.Instances {
				for _, inst := range insts {
					class.DestroyInstance(ctx, inst)
				}
			}
			ms.Enactor.CancelReservations(ctx, out.RequestID)
			b.StartTimer()
		}
	}
	b.Run("instrumented", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		run(b, reg)
		for _, stage := range []struct{ metric, unit string }{
			{"legion_enactor_make_reservations_seconds", "reserve-µs"},
			{"legion_enactor_enact_schedule_seconds", "enact-µs"},
			{"legion_host_start_object_seconds", "start-µs"},
		} {
			h := reg.Histogram(stage.metric, telemetry.LatencyBuckets)
			if h.Count() > 0 {
				b.ReportMetric(h.Mean()*1e6, stage.unit)
			}
		}
	})
	b.Run("uninstrumented", func(b *testing.B) {
		run(b, telemetry.NewDisabled())
	})
}

// benchQueryHosts builds an n-host Collection and times the E8 selective
// conjunctive query with the inverted attribute index on vs the linear
// scan ablation. Both sub-benchmarks run with a warm parse cache, so the
// delta is candidate pruning alone.
func benchQueryHosts(b *testing.B, n int) {
	build := func(indexed bool) *collection.Collection {
		rt := orb.NewRuntime("uva")
		rt.SetMetrics(telemetry.NewDisabled())
		c := collection.New(rt, nil)
		if !indexed {
			c.SetIndexedKeys()
		}
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < n; i++ {
			c.Join(loid.LOID{Domain: "uva", Class: "Host", Instance: uint64(i + 1)},
				[]attr.Pair{
					{Name: "host_zone", Value: attr.String(fmt.Sprintf("z%d", i%20))},
					{Name: "host_arch", Value: attr.String("x86")},
					{Name: "host_load", Value: attr.Float(rng.Float64())},
				}, "")
		}
		return c
	}
	const q = `$host_zone == "z3" and $host_load < 0.5`
	for _, mode := range []struct {
		name    string
		indexed bool
	}{{"indexed", true}, {"scan", false}} {
		b.Run(mode.name, func(b *testing.B) {
			c := build(mode.indexed)
			if _, err := c.Query(q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := c.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) == 0 {
					b.Fatal("selective query matched nothing")
				}
			}
		})
	}
}

// BenchmarkQuery1kHosts measures the indexed vs scan query latency on a
// 1000-host Collection (E8, query stage).
func BenchmarkQuery1kHosts(b *testing.B) { benchQueryHosts(b, 1000) }

// BenchmarkQuery10kHosts measures the same on 10000 hosts, where the
// index's candidate pruning dominates.
func BenchmarkQuery10kHosts(b *testing.B) { benchQueryHosts(b, 10000) }

// BenchmarkEnactWideSchedule measures one reserve+enact episode of a
// width-W schedule over simulated 1ms links, at the serial ablation
// (Parallelism 1) and the default fan-out (Parallelism 8). With the
// fan-out, latency stays near-flat as width grows (E8, enact stage).
func BenchmarkEnactWideSchedule(b *testing.B) {
	for _, width := range []int{4, 16, 32} {
		for _, par := range []int{1, 8} {
			b.Run(fmt.Sprintf("width=%d/parallel=%d", width, par), func(b *testing.B) {
				rt := orb.NewRuntime("uva")
				rt.SetMetrics(telemetry.NewDisabled())
				rt.SetLatency(time.Millisecond, 0)
				v := vault.New(rt, vault.Config{Zone: "z1"})
				hosts := make([]*host.Host, width)
				for i := range hosts {
					hosts[i] = host.New(rt, host.Config{
						Arch: "x86", OS: "Linux", CPUs: 64, MemoryMB: 1 << 14,
						Zone: "z1", MaxShared: 1024, Vaults: []loid.LOID{v.LOID()},
					})
				}
				class := classobj.New(rt, classobj.Config{Name: "Worker"})
				enr := enactor.New(rt, enactor.Config{Parallelism: par})
				var maps []sched.Mapping
				for i := 0; i < width; i++ {
					maps = append(maps, sched.Mapping{
						Class: class.LOID(), Host: hosts[i].LOID(), Vault: v.LOID(),
					})
				}
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					req := sched.RequestList{
						ID:      enr.NewRequestID(),
						Masters: []sched.Master{{Mappings: maps}},
						Res:     shareSpec(),
					}
					fb := enr.MakeReservations(ctx, req)
					if !fb.Success {
						b.Fatalf("reserve failed: %s", fb.Detail)
					}
					reply := enr.EnactSchedule(ctx, req.ID)
					if !reply.Success {
						b.Fatalf("enact failed: %s", reply.Detail)
					}
					b.StopTimer()
					for _, insts := range reply.Instances {
						for _, inst := range insts {
							class.DestroyInstance(ctx, inst)
						}
					}
					enr.CancelReservations(ctx, req.ID)
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkShardedQuery measures the federation layer's query cost at
// 10k hosts: a selective indexed query through a Router over 1/2/4
// Collection shards, against the direct single-Collection baseline
// (E9, query stage). The acceptance bar is "no worse than the
// baseline": the scatter-gather adds one local ORB hop and a merge, but
// each shard scans/prunes a fraction of the records.
func BenchmarkShardedQuery(b *testing.B) {
	const nHosts = 10000
	const q = `$host_zone == "z3" and $host_load < 0.5`
	join := func(join func(m loid.LOID, attrs []attr.Pair)) {
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < nHosts; i++ {
			join(loid.LOID{Domain: "uva", Class: "Host", Instance: uint64(i + 1)},
				[]attr.Pair{
					{Name: "host_zone", Value: attr.String(fmt.Sprintf("z%d", i%20))},
					{Name: "host_arch", Value: attr.String("x86")},
					{Name: "host_load", Value: attr.Float(rng.Float64())},
				})
		}
	}
	b.Run("direct", func(b *testing.B) {
		rt := orb.NewRuntime("uva")
		rt.SetMetrics(telemetry.NewDisabled())
		c := collection.New(rt, nil)
		join(func(m loid.LOID, attrs []attr.Pair) { c.Join(m, attrs, "") })
		if _, err := c.Query(q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recs, err := c.Query(q)
			if err != nil || len(recs) == 0 {
				b.Fatalf("query: %d recs, %v", len(recs), err)
			}
		}
	})
	for _, nShards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", nShards), func(b *testing.B) {
			rt := orb.NewRuntime("uva")
			rt.SetMetrics(telemetry.NewDisabled())
			loids := make([]loid.LOID, nShards)
			for i := range loids {
				loids[i] = collection.New(rt, nil).LOID()
			}
			r := collection.NewRouter(rt, collection.RouterConfig{Shards: loids})
			ctx := context.Background()
			join(func(m loid.LOID, attrs []attr.Pair) {
				if err := r.Join(ctx, m, attrs, ""); err != nil {
					b.Fatal(err)
				}
			})
			if _, _, err := r.QueryPartial(ctx, q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, skipped, err := r.QueryPartial(ctx, q)
				if err != nil || skipped != 0 || len(recs) == 0 {
					b.Fatalf("query: %d recs, %d skipped, %v", len(recs), skipped, err)
				}
			}
		})
	}
	// The deployment regime: Collections are remote services one link
	// away. The concurrent scatter pays the link once, like the direct
	// call does — the Router's fan-out is free where it matters.
	b.Run("direct-1ms-link", func(b *testing.B) {
		rt := orb.NewRuntime("uva")
		rt.SetMetrics(telemetry.NewDisabled())
		c := collection.New(rt, nil)
		join(func(m loid.LOID, attrs []attr.Pair) { c.Join(m, attrs, "") })
		rt.SetLatency(time.Millisecond, 0)
		ctx := context.Background()
		if _, err := rt.Call(ctx, c.LOID(), proto.MethodQueryCollection, proto.QueryArgs{Query: q}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.Call(ctx, c.LOID(), proto.MethodQueryCollection, proto.QueryArgs{Query: q}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shards=4-1ms-links", func(b *testing.B) {
		rt := orb.NewRuntime("uva")
		rt.SetMetrics(telemetry.NewDisabled())
		loids := make([]loid.LOID, 4)
		for i := range loids {
			loids[i] = collection.New(rt, nil).LOID()
		}
		r := collection.NewRouter(rt, collection.RouterConfig{Shards: loids})
		ctx := context.Background()
		join(func(m loid.LOID, attrs []attr.Pair) {
			if err := r.Join(ctx, m, attrs, ""); err != nil {
				b.Fatal(err)
			}
		})
		rt.SetLatency(time.Millisecond, 0)
		if _, _, err := r.QueryPartial(ctx, q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recs, skipped, err := r.QueryPartial(ctx, q)
			if err != nil || skipped != 0 || len(recs) == 0 {
				b.Fatalf("query: %d recs, %d skipped, %v", len(recs), skipped, err)
			}
		}
	})
}

// BenchmarkE7_PlacementUnderFaults measures the full placement pipeline
// with a fraction of calls failing as injected transport faults — the
// resilience layer's retry/breaker cost and effectiveness. Success rate
// is reported as a metric; time/op includes retries and backoff.
func BenchmarkE7_PlacementUnderFaults(b *testing.B) {
	for _, rate := range []float64{0, 0.05, 0.20} {
		b.Run(fmt.Sprintf("faults=%.0f%%", rate*100), func(b *testing.B) {
			ms := core.New("uva", core.Options{Seed: 1, Retry: resilient.Policy{
				MaxAttempts:    4,
				BaseDelay:      time.Millisecond,
				Budget:         10 * time.Second,
				AttemptTimeout: 5 * time.Second,
			}})
			defer ms.Close()
			v := ms.AddVault(vault.Config{Zone: "z1"})
			for i := 0; i < 4; i++ {
				ms.AddHost(host.Config{
					Arch: "x86", OS: "Linux", OSVersion: "2.2",
					CPUs: 8, MemoryMB: 1024, Zone: "z1",
					MaxShared: 1024,
					Vaults:    []loid.LOID{v.LOID()},
				})
			}
			class := ms.DefineClass("Worker", nil)
			ctx := context.Background()
			req := scheduler.Request{
				Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 3}},
				Res:     shareSpec(),
			}
			rng := rand.New(rand.NewSource(1999))
			var mu sync.Mutex
			if rate > 0 {
				ms.Runtime().SetFaultInjector(func(target loid.LOID, method string) error {
					mu.Lock()
					defer mu.Unlock()
					if rng.Float64() < rate {
						return fmt.Errorf("%w: flaky link", orb.ErrInjectedFault)
					}
					return nil
				})
				defer ms.Runtime().SetFaultInjector(nil)
			}
			placed := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := ms.PlaceApplicationLimits(ctx, scheduler.IRS{NSched: 3}, req,
					scheduler.Wrapper{SchedTryLimit: 4, EnactTryLimit: 2})
				if err != nil || !out.Success {
					continue
				}
				placed++
				b.StopTimer()
				for j, insts := range out.Instances {
					for _, inst := range insts {
						_, _ = ms.Runtime().Call(ctx, out.Feedback.Resolved[j].Class,
							proto.MethodDestroyInstance, proto.ObjectArgs{Object: inst})
					}
				}
				ms.Enactor.CancelReservations(ctx, out.RequestID)
				b.StartTimer()
			}
			b.ReportMetric(100*float64(placed)/float64(b.N), "success-%")
		})
	}
}
