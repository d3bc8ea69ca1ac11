// Package daemon implements the Data Collection Daemon.
//
// The paper (§3.1, footnote 4): "We are implementing an intermediate
// agent, the Data Collection Daemon, which pulls data from Hosts and
// pushes it into Collections." The daemon periodically invokes
// get_attributes on a set of resources and pushes what the sweep pulled
// into each of a set of Collections as one update_collection_batch call —
// the pull half of the Collection population model, complementing the
// Hosts' own push path. A batch entry upserts, so a resource's first
// deposit joins it and later ones update it.
//
// The pull loop is where resource failure becomes visible first, so the
// daemon doubles as the failure detector: each probe runs under a retry
// policy and a per-resource circuit breaker, successes heartbeat a
// monitor.Liveness tracker, and an unreachable resource's Collection
// records are not deleted but flagged (host_alive=false, host_state)
// so schedulers can skip them while operators still see the last known
// attributes — stale-but-flagged, never silently missing.
package daemon

import (
	"context"
	"sync"
	"time"

	"legion/internal/attr"
	"legion/internal/fanout"
	"legion/internal/loid"
	"legion/internal/monitor"
	"legion/internal/nws"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/resilient"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// Liveness attribute names deposited alongside pulled attributes.
const (
	// AttrAlive is false on records whose resource stopped answering.
	AttrAlive = "host_alive"
	// AttrState carries the monitor.LivenessState string.
	AttrState = "host_state"
	// AttrLoadHistory is the rolling window of recent host_load samples
	// the daemon accumulates across sweeps (oldest first) — the series
	// nws.InjectForecast's forecast_load() consumes.
	AttrLoadHistory = "host_load_history"
	// AttrLoad is the instantaneous load attribute the history samples.
	AttrLoad = "host_load"
)

const (
	// callTimeout is the deadline of each probe and each push, and the
	// default retry budget within it.
	callTimeout = 10 * time.Second
	// downAfter consecutive probe failures flag the resource's records.
	downAfter = 2
	// parallelism bounds how many resources one sweep probes at once,
	// so a sweep's wall time is dominated by the slowest probe, not the
	// sum of all probe timeouts.
	parallelism = 8
)

// Config parameterizes a Daemon.
type Config struct {
	// Interval between pull sweeps.
	Interval time.Duration
	// Credential presented with Collection updates.
	Credential string
	// Retry shapes per-probe retries; the zero value means 2 attempts
	// (one quick retry absorbs a blip without stretching the sweep).
	Retry resilient.Policy
	// Breakers is the per-resource circuit-breaker pool to share (e.g.
	// the Metasystem's domain-wide set); nil means a private set with
	// resilient defaults on the runtime's clock.
	Breakers *resilient.BreakerSet
	// HistoryLen > 0 makes each sweep record the resource's host_load
	// into a rolling per-resource window of that many samples and
	// deposit the window as the host_load_history attribute — the pull
	// loop doubling as the NWS measurement sensor, so forecast_load()
	// queries and predictive rebalancing have a series to predict from.
	// Zero disables (no history attribute is deposited).
	HistoryLen int
}

// Daemon pulls attribute snapshots from resources and pushes them into
// Collections.
type Daemon struct {
	rt   *orb.Runtime
	cfg  Config
	call *resilient.Caller
	live *monitor.Liveness

	mu          sync.Mutex
	resources   []loid.LOID
	collections []loid.LOID
	loadHist    map[loid.LOID][]float64 // rolling host_load windows (HistoryLen > 0)
	flagged     map[loid.LOID]bool      // resources currently marked down
	stopSweeps  func()                  // Start's vclock.Every; Stop calls it
	sweeps      int64
	errors      int64
	pushCalls   int64 // ORB calls spent pushing into Collections
}

// New creates a Daemon using rt for communication.
func New(rt *orb.Runtime, cfg Config) *Daemon {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Retry.MaxAttempts <= 0 {
		cfg.Retry.MaxAttempts = 2
	}
	if cfg.Retry.Budget <= 0 {
		cfg.Retry.Budget = callTimeout
	}
	if cfg.Retry.Clock == nil {
		cfg.Retry.Clock = rt.Clock()
	}
	if cfg.Breakers == nil {
		cfg.Breakers = resilient.NewBreakerSet(resilient.BreakerConfig{}, rt.Clock())
	}
	live := monitor.NewLiveness(3*cfg.Interval, downAfter, rt.Clock())
	wireLivenessCounters(live, rt.Metrics())
	return &Daemon{
		rt:       rt,
		cfg:      cfg,
		call:     resilient.NewCaller(rt, cfg.Retry, cfg.Breakers),
		live:     live,
		loadHist: make(map[loid.LOID][]float64),
		flagged:  make(map[loid.LOID]bool),
	}
}

// wireLivenessCounters counts liveness transitions into reg: one
// counter per destination state, so up/down flapping is visible as
// paired `to="up"` / `to="down"` increments.
func wireLivenessCounters(live *monitor.Liveness, reg *telemetry.Registry) {
	toUp := reg.Counter("legion_liveness_transitions_total", "to", "up")
	toDown := reg.Counter("legion_liveness_transitions_total", "to", "down")
	toStale := reg.Counter("legion_liveness_transitions_total", "to", "stale")
	live.OnTransition(func(_ loid.LOID, _, to monitor.LivenessState) {
		switch to {
		case monitor.LivenessUp:
			toUp.Inc()
		case monitor.LivenessDown:
			toDown.Inc()
		case monitor.LivenessStale:
			toStale.Inc()
		}
	})
}

// Breakers exposes the daemon's per-resource breaker states.
func (d *Daemon) Breakers() *resilient.BreakerSet { return d.cfg.Breakers }

// Watch adds resources to pull from.
func (d *Daemon) Watch(resources ...loid.LOID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.resources = append(d.resources, resources...)
}

// PushInto adds Collections to push into.
func (d *Daemon) PushInto(collections ...loid.LOID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.collections = append(d.collections, collections...)
}

// Sweep performs one pull-and-push pass synchronously and reports how
// many (resource, collection) deposits succeeded. Unreachable resources
// do not stall the sweep: the probe fails inside its retry budget (or
// instantly once its breaker opens), the failure feeds the liveness
// tracker, and on crossing the down threshold the resource's records in
// every Collection are flagged down in place.
//
// What the probes pulled goes to each Collection as one batch once the
// last probe has returned, the Collections in turn, each push under its
// own callTimeout. A record so reaches the k-th Collection at most
// (⌈resources/parallelism⌉ + k−1) × callTimeout after the sweep began,
// plus link latency × hops; on a virtual clock the probes run serially,
// so parallelism counts as 1 there. A failed push, a Router's included
// when any of its shards missed the batch, is not kept: the next sweep
// deposits fresher state, and the down-flags the failed push carried
// are sent again. Deposits a Collection refuses count as errors.
func (d *Daemon) Sweep(ctx context.Context) int {
	d.mu.Lock()
	resources := append([]loid.LOID(nil), d.resources...)
	collections := append([]loid.LOID(nil), d.collections...)
	d.sweeps++
	d.mu.Unlock()

	// Probe the resources concurrently: a sweep over a fleet with a few
	// dead hosts would otherwise serialize their full retry budgets. All
	// shared state touched here (errors, flagged, the liveness tracker) is
	// internally locked; each probe writes its entry into its own slot,
	// so the batch lists resources in the order they are watched.
	slots := make([]proto.BatchEntry, len(resources))
	fanout.Do(d.rt.Clock(), parallelism, len(resources), func(ri int) {
		res := resources[ri]
		clk := d.rt.Clock()
		cctx := clk.WithDeadline(ctx, clk.Now().Add(callTimeout))
		attrs, err := resilient.Invoke[proto.AttributesReply, any](cctx, d.call, d.call.Policy(), res, proto.MethodGetAttributes, nil)
		vclock.End(cctx)
		if err != nil {
			d.mu.Lock()
			d.errors++
			d.mu.Unlock()
			d.live.Fail(res)
			if d.live.State(res) == monitor.LivenessDown && d.markDown(res) {
				slots[ri] = downFlag(res)
			}
			return
		}
		d.live.Beat(res)
		d.mu.Lock()
		d.flagged[res] = false // the deposit below re-marks alive=true
		d.mu.Unlock()
		attrs.Attrs = append(attrs.Attrs,
			attr.Pair{Name: AttrAlive, Value: attr.Bool(true)},
			attr.Pair{Name: AttrState, Value: attr.String(d.live.State(res).String())},
		)
		if hist, ok := d.recordLoad(res, attrs.Attrs); ok {
			attrs.Attrs = append(attrs.Attrs,
				attr.Pair{Name: AttrLoadHistory, Value: nws.HistoryAttr(hist)})
		}
		slots[ri] = proto.BatchEntry{Member: res, Attrs: attrs.Attrs}
	})

	entries, deposits := slots[:0], 0
	for _, e := range slots {
		if e.Member.IsNil() {
			continue // a failed probe with no flag to send
		}
		if !e.UpdateOnly {
			deposits++
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return 0
	}
	flags, ok := len(entries)-deposits, 0
	for _, coll := range collections {
		reply, pushed := d.push(ctx, coll, entries)
		d.mu.Lock()
		if pushed {
			// Dropped also counts flags for absent members, so only the
			// excess is sure to be deposits the Collection refused (a
			// credential its Authorizer turns down).
			refused := max(reply.Dropped-flags, 0)
			d.errors += int64(refused)
			ok += deposits - refused
		} else {
			for _, e := range entries {
				if e.UpdateOnly {
					d.flagged[e.Member] = false
				}
			}
		}
		d.mu.Unlock()
	}
	return ok
}

// recordLoad folds the snapshot's host_load sample into the resource's
// rolling window and returns a copy to deposit, so nothing read outside
// the lock shares the window's backing array. Disabled, load-less, and
// non-numeric snapshots deposit nothing.
func (d *Daemon) recordLoad(res loid.LOID, attrs []attr.Pair) ([]float64, bool) {
	if d.cfg.HistoryLen <= 0 {
		return nil, false
	}
	load, ok := 0.0, false
	for _, p := range attrs {
		if p.Name == AttrLoad {
			load, ok = p.Value.AsFloat()
			break
		}
	}
	if !ok {
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	h := append(d.loadHist[res], load)
	if len(h) > d.cfg.HistoryLen {
		h = append(h[:0:0], h[len(h)-d.cfg.HistoryLen:]...)
	}
	d.loadHist[res] = h
	return append([]float64(nil), h...), true
}

// downFlag is the entry that marks a dead resource's record down: the
// batch apply merges it, so the stale attributes survive alongside the
// flag for operators, while schedulers filter on host_alive. It is
// UpdateOnly, so a member never deposited (or pruned) gets no record.
func downFlag(res loid.LOID) proto.BatchEntry {
	return proto.BatchEntry{Member: res, UpdateOnly: true, Attrs: []attr.Pair{
		{Name: AttrAlive, Value: attr.Bool(false)},
		{Name: AttrState, Value: attr.String(monitor.LivenessDown.String())},
	}}
}

// markDown marks res flagged and reports whether it was not already, so
// a resource that stays down costs no traffic per sweep.
func (d *Daemon) markDown(res loid.LOID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	already := d.flagged[res]
	d.flagged[res] = true
	return !already
}

// push sends one sweep's entries to coll as a single batch call and
// reports the Collection's reply, or false if the call failed.
func (d *Daemon) push(ctx context.Context, coll loid.LOID, entries []proto.BatchEntry) (proto.BatchUpdateReply, bool) {
	clk := d.rt.Clock()
	cctx := clk.WithDeadline(ctx, clk.Now().Add(callTimeout))
	defer vclock.End(cctx)
	d.mu.Lock()
	d.pushCalls++
	d.mu.Unlock()
	reply, err := resilient.Invoke[proto.BatchUpdateReply](cctx, d.call, d.call.Policy(), coll, proto.MethodUpdateCollectionBatch,
		proto.BatchUpdateArgs{Entries: entries, Credential: d.cfg.Credential})
	if err != nil {
		d.mu.Lock()
		d.errors++
		d.mu.Unlock()
		return reply, false
	}
	return reply, true
}

// Start begins periodic sweeps, unless they are running; Stop ends them.
func (d *Daemon) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopSweeps == nil {
		d.stopSweeps = vclock.Every(d.rt.Clock(), d.cfg.Interval, func() { d.Sweep(context.Background()) })
	}
}

// Stop halts periodic sweeps as vclock.Every's stop does: it returns once
// a sweep in flight has finished, push included, and no further sweep
// starts. Idempotent.
func (d *Daemon) Stop() {
	d.mu.Lock()
	stop := d.stopSweeps
	d.stopSweeps = nil
	d.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Stats reports sweep and error counts.
func (d *Daemon) Stats() (sweeps, errors int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sweeps, d.errors
}

// PushCalls reports how many ORB calls the daemon has spent pushing
// data into Collections: one per Collection per sweep that had anything
// to send.
func (d *Daemon) PushCalls() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pushCalls
}
