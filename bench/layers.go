package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/telemetry"
)

// The traced runs. Each builds its workload's fixture, interleaves one
// serial client running untraced (the overhead baseline) with one
// running traced, reads the layers' public counters across the pass,
// and finishes with the layer probes. A traced run reports every
// per-layer metric: the ones its workload never touches stay 0.

// layerResult starts a traced result with every per-layer metric at 0;
// set overwrites the ones the run measured.
type layerResult struct {
	*result
	values map[string]float64
}

func newLayerResult() *layerResult {
	return &layerResult{result: &result{}, values: map[string]float64{}}
}

func (l *layerResult) set(name string, v float64) { l.values[name] = v }

func (l *layerResult) setAll(values map[string]float64) {
	for name, v := range values {
		l.values[name] = v
	}
}

// conclude ends a traced run: it tallies the passes' operations, adds
// the fixtures' failed checks, runs the layer probes, emits the metrics
// in declaration order and writes the span file.
func (l *layerResult) conclude(cfg config, workload string, rec *recorder, passes []serialStats, failedChecks []string) (*result, error) {
	for _, s := range passes {
		l.Attempted += s.ops + s.failed
		l.Failed += s.failed
	}
	if l.Failed > 0 {
		l.checkf("%d of %d serial operations failed", l.Failed, l.Attempted)
	}
	l.CheckErrors = append(l.CheckErrors, failedChecks...)
	if err := probes(cfg, l); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		l.add(d.name, l.values[d.name])
	}
	return l.result, rec.write(cfg, workload)
}

// serialStats is what one serial client's share of a traced run cost.
type serialStats struct {
	ops, failed int64
	wall        time.Duration
	lat         []time.Duration // the primary operation's latencies
	// Wrapper.Run's own tallies, summed (untraced placement passes).
	schedAttempts, enactAttempts, transportRetries int
}

// usPerOp is the wall time per successful operation.
func (s serialStats) usPerOp() float64 {
	return ratio(float64(s.wall)/float64(time.Microsecond), float64(s.ops))
}

// variant is one way of running a workload's operation serially: with
// or without the tracer, on the fixture or on its twin. enter and leave
// bracket each of its blocks (to install and remove the tracer).
type variant struct {
	op           func(s *serialStats) error
	enter, leave func()
}

// interleaved runs the variants round-robin in blocks of blockDur,
// until the budget cfg.seconds (less a share kept for the probes) is
// spent, and returns each variant's tally. Alternating short blocks
// puts machine noise and heap growth on every variant alike, which is
// what lets two variants' times be compared as a ratio.
func interleaved(cfg config, budgetShare float64, variants ...variant) []serialStats {
	const blockDur = 20 * time.Millisecond
	each := time.Duration(cfg.seconds * budgetShare / float64(len(variants)) * float64(time.Second))
	stats := make([]serialStats, len(variants))
	for running := true; running; {
		running = false
		for i, v := range variants {
			s := &stats[i]
			if s.wall >= each || (cfg.maxOps > 0 && s.ops+s.failed >= int64(cfg.maxOps)) {
				continue
			}
			running = true
			if v.enter != nil {
				v.enter()
			}
			for t0 := time.Now(); ; {
				if err := v.op(s); err != nil {
					s.failed++
				} else {
					s.ops++
				}
				if d := time.Since(t0); d >= blockDur {
					s.wall += d
					break
				}
			}
			if v.leave != nil {
				v.leave()
			}
		}
	}
	return stats
}

// Budget shares of a traced run: a short discarded warm-up, then the
// measured passes; the rest is left for the probes.
const (
	warmShare    = 0.05
	measureShare = 0.8
)

// --- wall_place, tcp_place ---

// tracedRequestIDs numbers the harness-driven episodes, clear of the
// Wrapper's (from 1<<32) and the Enactor's own sequences.
var tracedRequestIDs atomic.Uint64

func init() { tracedRequestIDs.Store(1 << 48) }

// placeStaged is one placement driven stage by stage — the calls
// Wrapper.Run makes — and torn down. With a recorder it is wrapped in a
// span, as is each generate, and the ORB tracer supplies the spans of
// every method call underneath; rec and genTime are nil for the
// untraced pass that trace.overhead_ratio compares against. genTime
// accumulates each generator's Generate durations.
func (f *placeFixture) placeStaged(ctx context.Context, c *placeClient, rec *recorder, genTime map[string]*spanTotals) error {
	gen := f.rotation[c.next%len(f.rotation)]
	c.next++
	return rec.operation("placement", func() error {
		var last error
		for attempt := 0; attempt < f.wrapper.SchedTryLimit; attempt++ {
			endGen := rec.span("scheduler.generate")
			t0 := time.Now()
			request, err := gen.Generate(ctx, &c.env, f.req)
			d := time.Since(t0)
			endGen(err)
			if err != nil {
				last = err
				continue
			}
			if genTime != nil {
				t := genTime[gen.Name()]
				if t == nil {
					t = &spanTotals{}
					genTime[gen.Name()] = t
				}
				t.Count++
				t.DurNS += int64(d)
			}
			request.ID = tracedRequestIDs.Add(1)
			res, err := f.rt.Call(ctx, f.enactor, proto.MethodMakeReservations,
				proto.MakeReservationsArgs{Request: request, RequesterDomain: f.rt.Domain()})
			if err != nil {
				last = err
				continue
			}
			fb := res.(proto.FeedbackReply).Feedback
			if !fb.Success {
				last = fmt.Errorf("%s: %s", fb.Reason, fb.Detail)
				continue
			}
			eres, err := f.rt.Call(ctx, f.enactor, proto.MethodEnactSchedule, proto.EnactScheduleArgs{RequestID: request.ID})
			if err != nil {
				return err
			}
			reply := eres.(proto.EnactReply)
			if !reply.Success {
				return fmt.Errorf("enactment failed: %s", reply.Detail)
			}
			return f.teardown(ctx, reply.Instances, fb.Resolved, request.ID)
		}
		return last
	})
}

// wrapperVariant is the untraced production path: client c placing
// through Wrapper.Run and tearing down.
func (f *placeFixture) wrapperVariant(ctx context.Context, c *placeClient) variant {
	return variant{op: func(s *serialStats) error {
		out, lat, err := f.run(ctx, c)
		s.schedAttempts += out.SchedAttempts
		s.enactAttempts += out.EnactAttempts
		s.transportRetries += out.TransportRetries
		if err != nil {
			return err
		}
		s.lat = append(s.lat, lat)
		return f.teardown(ctx, out.Instances, out.Feedback.Resolved, out.RequestID)
	}}
}

// tracePlace interleaves four serial clients: Wrapper.Run on the
// fixture (the production path: its cost, its attempt and retry
// tallies), the staged placement untraced and traced (their ratio is
// the tracing overhead), and Wrapper.Run on a twin fixture — built
// without telemetry for wall_place, without the socket for tcp_place.
func tracePlace(cfg config, tcp bool) (*result, error) {
	name := "wall_place"
	if tcp {
		name = "tcp_place"
	}
	reg := telemetry.NewRegistry()
	f, err := newPlace(cfg, tcp, reg, 3)
	if err != nil {
		return nil, err
	}
	defer f.close()
	twinReg := telemetry.NewDisabled()
	if tcp {
		twinReg = telemetry.NewRegistry()
	}
	twin, err := newPlace(cfg, false, twinReg, 1)
	if err != nil {
		return nil, err
	}
	defer twin.close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds)*time.Second+time.Minute)
	defer cancel()
	rec := newRecorder()
	genTime := map[string]*spanTotals{}
	runtimes := []*orb.Runtime{f.ms.Runtime()}
	if f.remote != nil {
		runtimes = append(runtimes, f.remote)
	}
	setTracer := func(t orb.CallTracer) func() {
		return func() {
			for _, rt := range runtimes {
				rt.SetTracer(t)
			}
		}
	}
	variants := []variant{
		f.wrapperVariant(ctx, f.clients[0]),
		{op: func(*serialStats) error { return f.placeStaged(ctx, f.clients[1], nil, nil) }},
		{op: func(*serialStats) error { return f.placeStaged(ctx, f.clients[2], rec, genTime) },
			enter: setTracer(rec.tracer(true)), leave: setTracer(nil)},
		twin.wrapperVariant(ctx, twin.clients[0]),
	}
	interleaved(cfg, warmShare, variants[0], variants[1], variants[3])

	// The layers' public counters tick alike for all three clients on
	// the fixture (same requests, same calls), so they are read across
	// the whole measured pass and divided by all its placements.
	queries0, _ := f.ms.Collection.Stats()
	stats0 := f.ms.Enactor.TotalStats()
	hits0, misses0 := f.cache.Stats()
	results := reg.Histogram("legion_collection_query_results", telemetry.SizeBuckets)
	resultsSum0, resultsN0 := results.Sum(), results.Count()
	passes := interleaved(cfg, measureShare, variants...)
	queries1, _ := f.ms.Collection.Stats()
	hits1, misses1 := f.cache.Stats()
	wrapped, staged, traced, other := passes[0], passes[1], passes[2], passes[3]

	res := newLayerResult()
	times, unattributed := rec.layerTimes()
	res.setAll(times)
	res.set("trace.unattributed_us", unattributed)
	res.set("trace.negotiation_self_us", rec.negotiationSelfUS())
	res.set("trace.op_us", wrapped.usPerOp())
	res.set("trace.overhead_ratio", ratio(traced.usPerOp(), staged.usPerOp()))
	for gen, t := range genTime {
		res.set("scheduler.generate_us."+strings.ReplaceAll(gen, "-", "_"), ratio(float64(t.DurNS)/1e3, float64(t.Count)))
	}
	res.set("scheduler.sched_attempts_per_placement", ratio(float64(wrapped.schedAttempts), float64(wrapped.ops)))
	res.set("scheduler.enact_attempts_per_placement", ratio(float64(wrapped.enactAttempts), float64(wrapped.ops)))
	res.set("resilient.transport_retries_per_placement", ratio(float64(wrapped.transportRetries), float64(wrapped.ops)))
	fixtureOps := float64(wrapped.ops + staged.ops + traced.ops)
	res.set("scheduler.cache_hit_ratio", ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)))
	res.set("collection.query_calls_per_placement", ratio(float64(queries1-queries0), fixtureOps))
	res.set("collection.records_per_query", ratio(results.Sum()-resultsSum0, float64(results.Count()-resultsN0)))
	setEnactorCounts(res, stats0, f.ms.Enactor.TotalStats(), fixtureOps)
	setCallCounts(res, rec, float64(traced.ops))
	p50, otherP50 := percentileUS(wrapped.lat, 0.50), percentileUS(other.lat, 0.50)
	if tcp {
		res.set("orb.socket_share", ratio(p50-otherP50, p50))
	} else {
		res.set("telemetry.overhead_ratio", ratio(wrapped.usPerOp(), other.usPerOp()))
	}

	res.note("serial placements: Wrapper.Run=%d (p50 %.1fus) staged=%d traced=%d twin=%d (p50 %.1fus)",
		wrapped.ops, p50, staged.ops, traced.ops, other.ops, otherP50)
	serialUS := ratio(float64(rec.rootNS)/1e3, float64(traced.ops))
	res.note("traced placement+teardown %.1fus, of which %.1fus (%.0f%%) is some layer's self time and %.1fus unattributed",
		serialUS, serialUS-unattributed, 100*ratio(serialUS-unattributed, serialUS), unattributed)
	return res.conclude(cfg, name, rec, passes, append(f.check(), twin.check()...))
}

func setEnactorCounts(res *layerResult, before, after sched.EnactmentStats, ops float64) {
	requested := float64(after.ReservationsRequested - before.ReservationsRequested)
	res.set("enactor.reservations_requested_per_placement", ratio(requested, ops))
	res.set("enactor.grant_ratio", ratio(float64(after.ReservationsGranted-before.ReservationsGranted), requested))
	res.set("enactor.variants_tried_per_placement", ratio(float64(after.VariantsTried-before.VariantsTried), ops))
}

func setCallCounts(res *layerResult, rec *recorder, ops float64) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	res.set("orb.calls_per_placement", ratio(callsWithPrefix(rec.calls, ""), ops))
	res.set("host.calls_per_placement", ratio(callsWithPrefix(rec.calls, "Host."), ops))
	res.set("host.refusals_per_placement", ratio(callsWithPrefix(rec.errs, "Host.make_reservation"), ops))
	res.set("vault.calls_per_placement", ratio(callsWithPrefix(rec.calls, "Vault."), ops))
}

// --- vscale ---

// traceVscale contributes counts only: under vclock.Virtual the
// tracer's durations are virtual. Its host-time split is the
// reconciliation printed by noteVscaleReconciliation.
func traceVscale(cfg config) (*result, error) {
	f := newVscale(cfg)
	defer f.close()
	res := newLayerResult()
	n := cfg.vscalePlacements
	f.campaign(n/10+1, cfg.seed-1) // warm-up

	base, baseUsage := f.campaign(n, cfg.seed)

	rec := newRecorder()
	f.ms.Runtime().SetTracer(rec.tracer(false))
	f.vc.StartTrace()
	queries0, _ := f.ms.Collection.Stats()
	stats0 := f.ms.Enactor.TotalStats()
	traced, tracedUsage := f.campaign(n, cfg.seed)
	events := len(f.vc.Trace())
	f.ms.Runtime().SetTracer(nil)
	queries1, _ := f.ms.Collection.Stats()

	ops := float64(traced.Succeeded)
	res.set("vclock.events_per_placement", ratio(float64(events), ops))
	hostUS := ratio(float64(baseUsage.wall)/1e3, float64(base.Succeeded))
	res.set("trace.op_us", hostUS)
	res.set("trace.overhead_ratio", ratio(ratio(float64(tracedUsage.wall)/1e3, ops), hostUS))
	res.set("scheduler.cache_hit_ratio", ratio(float64(traced.CacheHits), float64(traced.CacheHits+traced.CacheMisses)))
	res.set("collection.query_calls_per_placement", ratio(float64(queries1-queries0), ops))
	setEnactorCounts(res, stats0, f.ms.Enactor.TotalStats(), ops)
	setCallCounts(res, rec, ops)

	res.note("campaigns of %d placements: untraced %.1fus, traced %.1fus of host time per placement",
		n, hostUS, ratio(float64(tracedUsage.wall)/1e3, ops))
	out, err := res.conclude(cfg, "vscale", rec, []serialStats{
		{ops: int64(base.Succeeded), failed: int64(base.Failed + base.Shed)},
		{ops: int64(traced.Succeeded), failed: int64(traced.Failed + traced.Shed)},
	}, f.check())
	if err != nil {
		return nil, err
	}
	perPlacement, nsPerEvent := res.values["vclock.events_per_placement"], res.values["vclock.ns_per_event"]
	out.note("engine share: %.1f events x %.0fns = %.1fus of host time per placement", perPlacement, nsPerEvent, perPlacement*nsPerEvent/1e3)
	return out, nil
}

// noteVscaleReconciliation prints, when one traced invocation ran both
// vscale and wall_place, the engine's share plus wall_place's
// negotiation self time beside the host time vscale measured per
// placement.
func noteVscaleReconciliation(set []*result, stdout io.Writer) {
	var vscale, wall *result
	for _, r := range set {
		switch r.Workload {
		case "vscale":
			vscale = r
		case "wall_place":
			wall = r
		}
	}
	if vscale == nil || wall == nil {
		return
	}
	get := func(r *result, name string) float64 { v, _ := r.value(name); return v }
	engine := get(vscale, "vclock.events_per_placement") * get(vscale, "vclock.ns_per_event") / 1e3
	negotiation := get(wall, "trace.negotiation_self_us")
	fmt.Fprintf(stdout, "# vscale: reconciliation: engine %.1fus + wall_place negotiation self time %.1fus = %.1fus beside %.1fus of host time measured per placement\n",
		engine, negotiation, engine+negotiation, get(vscale, "trace.op_us"))
}

// --- orb_echo ---

func traceEcho(cfg config) (*result, error) {
	f, err := newEcho(cfg)
	if err != nil {
		return nil, err
	}
	defer f.close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds)*time.Second+time.Minute)
	defer cancel()
	rec := newRecorder()
	untraced := variant{op: func(*serialStats) error { _, err := f.call(ctx, f.small, true); return err }}
	withSpans := variant{
		op: func(*serialStats) error {
			return rec.operation("echo.call", func() error { _, err := f.call(ctx, f.small, true); return err })
		},
		enter: func() { f.client.SetTracer(rec.tracer(true)) },
		leave: func() { f.client.SetTracer(nil) },
	}
	// On one P, like the end-to-end run; the probes that follow run at
	// the default GOMAXPROCS, as they do after every other workload.
	restore := singleP()
	interleaved(cfg, warmShare, untraced)
	passes := interleaved(cfg, measureShare, untraced, withSpans)
	restore()
	base, traced := passes[0], passes[1]

	res := newLayerResult()
	times, unattributed := rec.layerTimes()
	res.setAll(times)
	res.set("trace.unattributed_us", unattributed)
	res.set("trace.op_us", base.usPerOp())
	res.set("trace.overhead_ratio", ratio(traced.usPerOp(), base.usPerOp()))
	setCallCounts(res, rec, float64(traced.ops))
	res.note("serial echo calls: untraced=%d traced=%d; no placement layer runs here, so their metrics read 0", base.ops, traced.ops)
	return res.conclude(cfg, "orb_echo", rec, passes, nil)
}

// --- collection_churn ---

// traceChurn runs the reader's and the writer's cycles alternately on
// one goroutine, each public Collection call one operation and one
// span: the Collection makes no calls of its own, so a span has no
// children and its self time is its duration.
func traceChurn(cfg config) (*result, error) {
	f, err := newChurn(cfg)
	if err != nil {
		return nil, err
	}
	res := newLayerResult()
	cycle := func(wrap callWrapper) variant {
		return variant{op: func(s *serialStats) error {
			reads, err := f.readCycle(wrap)
			if err != nil {
				return err
			}
			writes, err := f.writeCycle(wrap)
			// One cycle is this many public calls; the caller counts one.
			s.ops += reads + writes - 1
			return err
		}}
	}
	rec := newRecorder()
	interleaved(cfg, warmShare, cycle(unwrapped))
	f.queries, f.matched = 0, 0
	passes := interleaved(cfg, measureShare, cycle(unwrapped), cycle(rec.operation))
	base, traced := passes[0], passes[1]

	times, unattributed := rec.layerTimes()
	res.setAll(times)
	res.set("trace.unattributed_us", unattributed)
	res.set("trace.op_us", base.usPerOp())
	res.set("trace.overhead_ratio", ratio(traced.usPerOp(), base.usPerOp()))
	res.set("collection.records_per_query", ratio(float64(f.matched), float64(f.queries)))
	res.note("serial Collection calls: untraced=%d traced=%d", base.ops, traced.ops)
	return res.conclude(cfg, "collection_churn", rec, passes, f.check())
}
