// Package daemon implements the Data Collection Daemon.
//
// The paper (§3.1, footnote 4): "We are implementing an intermediate
// agent, the Data Collection Daemon, which pulls data from Hosts and
// pushes it into Collections." The daemon periodically invokes
// get_attributes on a set of resources and UpdateCollectionEntry (or
// JoinCollection for resources not yet members) on a set of Collections —
// the pull half of the Collection population model, complementing the
// Hosts' own push path.
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

// Config parameterizes a Daemon.
type Config struct {
	// Interval between pull sweeps.
	Interval time.Duration
	// Credential presented with Collection updates.
	Credential string
	// CallTimeout bounds each per-resource call (the whole retry budget
	// for that probe); zero means 10 seconds.
	CallTimeout time.Duration
	// Retry shapes per-probe retries; the zero value means 2 attempts
	// (one quick retry absorbs a blip without stretching the sweep).
	Retry resilient.Policy
	// Breakers is the per-resource circuit-breaker pool to share (e.g.
	// the Metasystem's domain-wide set); nil means a private set with
	// resilient defaults on the runtime's clock.
	Breakers *resilient.BreakerSet
	// Liveness, when non-nil, is the tracker to feed; nil makes the
	// daemon create its own (read it back via Liveness()).
	Liveness *monitor.Liveness
	// DownAfter consecutive probe failures flag the resource's records;
	// zero means 2.
	DownAfter int
	// Parallelism bounds how many resources are probed concurrently in
	// one sweep, so a sweep's wall time is dominated by the slowest
	// probe, not the sum of all probe timeouts. Zero means 8; 1 probes
	// serially.
	Parallelism int
	// BatchInterval > 0 switches the push half to coalesced batches:
	// deposits and down-flags are buffered per Collection and flushed as
	// one UpdateCollectionBatch call every BatchInterval (and whenever a
	// buffer reaches BatchSize, and on Stop). The trade-off is the
	// paper's §4 pull/push staleness argument made explicit: Collection
	// data lags by up to one interval in exchange for one ORB
	// round-trip per Collection per flush instead of one per resource.
	BatchInterval time.Duration
	// BatchSize triggers an early flush when a Collection's buffer holds
	// this many entries; zero means 256. Buffers are capped at 16× this
	// to bound memory while a Collection is unreachable (oldest entries
	// are dropped and counted as errors).
	BatchSize int
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
	joined      map[loid.LOID]bool
	flagged     map[loid.LOID]bool // resources currently marked down
	batches     map[loid.LOID]*collBatch
	tickers     []vclock.Ticker // Start's; Stop stops them
	stopped     bool
	sweeps      int64
	errors      int64
	sheds       int64 // batch entries dropped by the overflow cap
	pushCalls   int64 // ORB calls spent pushing into Collections

	// shedCounter mirrors sheds into the runtime's registry
	// (legion_daemon_update_sheds_total) so overflow drops are visible
	// on /metrics, distinct from transport errors.
	shedCounter *telemetry.Counter
}

// collBatch buffers pending entries for one Collection. mu guards
// pending; sendMu is held across the swap-and-send of a flush so
// concurrent flushes serialize and per-member entry order on the wire
// matches enqueue order (a failed send re-queues its entries at the
// front under mu before sendMu is released, so no later flush can slip
// its entries ahead of them).
type collBatch struct {
	mu      sync.Mutex
	sendMu  sync.Mutex
	pending []proto.BatchEntry
}

// New creates a Daemon using rt for communication.
func New(rt *orb.Runtime, cfg Config) *Daemon {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.Retry.MaxAttempts <= 0 {
		cfg.Retry.MaxAttempts = 2
	}
	if cfg.Retry.Budget <= 0 {
		cfg.Retry.Budget = cfg.CallTimeout
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 2
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 8
	}
	if cfg.Liveness == nil {
		cfg.Liveness = monitor.NewLiveness(3*cfg.Interval, cfg.DownAfter, rt.Clock())
		// A tracker minted here is observed by nothing else, so the
		// daemon wires the flap counters itself; a caller-supplied
		// tracker keeps whatever observer the caller installed.
		wireLivenessCounters(cfg.Liveness, rt.Metrics())
	}
	if cfg.Retry.Clock == nil {
		cfg.Retry.Clock = rt.Clock()
	}
	if cfg.Breakers == nil {
		cfg.Breakers = resilient.NewBreakerSet(resilient.BreakerConfig{}, rt.Clock())
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	return &Daemon{
		rt:          rt,
		cfg:         cfg,
		call:        resilient.NewCaller(rt, cfg.Retry, cfg.Breakers),
		live:        cfg.Liveness,
		loadHist:    make(map[loid.LOID][]float64),
		joined:      make(map[loid.LOID]bool),
		flagged:     make(map[loid.LOID]bool),
		batches:     make(map[loid.LOID]*collBatch),
		shedCounter: rt.Metrics().Counter("legion_daemon_update_sheds_total"),
	}
}

// batching reports whether the coalesced push path is enabled.
func (d *Daemon) batching() bool { return d.cfg.BatchInterval > 0 }

func (d *Daemon) batchFor(coll loid.LOID) *collBatch {
	d.mu.Lock()
	defer d.mu.Unlock()
	cb := d.batches[coll]
	if cb == nil {
		cb = &collBatch{}
		d.batches[coll] = cb
	}
	return cb
}

// enqueue buffers one entry for coll and flushes if the buffer filled.
func (d *Daemon) enqueue(ctx context.Context, coll loid.LOID, e proto.BatchEntry) {
	cb := d.batchFor(coll)
	cb.mu.Lock()
	cb.pending = append(cb.pending, e)
	// Bound memory while coll is unreachable: shed the oldest entries
	// (their members' later entries, still queued, carry newer state).
	// Sheds are counted apart from transport errors — a rising shed
	// count means updates are being lost to backpressure, not that the
	// Collection is failing calls.
	if max := 16 * d.cfg.BatchSize; len(cb.pending) > max {
		over := len(cb.pending) - max
		cb.pending = append(cb.pending[:0:0], cb.pending[over:]...)
		d.shedCounter.Add(int64(over))
		d.mu.Lock()
		d.sheds += int64(over)
		d.mu.Unlock()
	}
	full := len(cb.pending) >= d.cfg.BatchSize
	cb.mu.Unlock()
	if full {
		d.flushOne(ctx, coll, cb)
	}
}

// FlushAll flushes every Collection's buffer.
func (d *Daemon) FlushAll(ctx context.Context) {
	d.mu.Lock()
	colls := make([]loid.LOID, 0, len(d.batches))
	cbs := make([]*collBatch, 0, len(d.batches))
	for coll, cb := range d.batches {
		colls = append(colls, coll)
		cbs = append(cbs, cb)
	}
	d.mu.Unlock()
	for i := range colls {
		d.flushOne(ctx, colls[i], cbs[i])
	}
}

func (d *Daemon) flushOne(ctx context.Context, coll loid.LOID, cb *collBatch) {
	cb.sendMu.Lock()
	defer cb.sendMu.Unlock()
	cb.mu.Lock()
	entries := cb.pending
	cb.pending = nil
	cb.mu.Unlock()
	if len(entries) == 0 {
		return
	}
	clk := d.rt.Clock()
	cctx := clk.WithDeadline(ctx, clk.Now().Add(d.cfg.CallTimeout))
	defer vclock.End(cctx)
	d.mu.Lock()
	d.pushCalls++
	d.mu.Unlock()
	_, err := d.call.Call(cctx, coll, proto.MethodUpdateCollectionBatch,
		proto.BatchUpdateArgs{Entries: entries, Credential: d.cfg.Credential})
	if err == nil {
		return
	}
	// Re-queue at the front (sendMu is still held, so nothing sent in
	// between) and retry on the next flush.
	d.mu.Lock()
	d.errors++
	d.mu.Unlock()
	cb.mu.Lock()
	cb.pending = append(entries, cb.pending...)
	cb.mu.Unlock()
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

// Liveness returns the tracker the daemon feeds.
func (d *Daemon) Liveness() *monitor.Liveness { return d.live }

// Breakers exposes the daemon's per-resource breaker states.
func (d *Daemon) Breakers() *resilient.BreakerSet { return d.call.Breakers() }

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
func (d *Daemon) Sweep(ctx context.Context) int {
	d.mu.Lock()
	resources := append([]loid.LOID(nil), d.resources...)
	collections := append([]loid.LOID(nil), d.collections...)
	d.sweeps++
	d.mu.Unlock()

	// Probe the resources concurrently: a sweep over a fleet with a few
	// dead hosts would otherwise serialize their full retry budgets. All
	// shared state touched here (errors, flagged, joined, the liveness
	// tracker) is internally locked; the per-resource deposit counts go
	// into per-index slots and are summed after the join.
	oks := make([]int, len(resources))
	fanout.Do(d.rt.Clock(), d.cfg.Parallelism, len(resources), func(ri int) {
		res := resources[ri]
		clk := d.rt.Clock()
		cctx := clk.WithDeadline(ctx, clk.Now().Add(d.cfg.CallTimeout))
		attrs, err := orb.As[proto.AttributesReply](d.call.Call(cctx, res, proto.MethodGetAttributes, nil))
		vclock.End(cctx)
		if err != nil {
			d.mu.Lock()
			d.errors++
			d.mu.Unlock()
			d.live.Fail(res)
			if d.live.State(res) == monitor.LivenessDown {
				d.flagDown(ctx, res, collections)
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
		for _, coll := range collections {
			if d.deposit(ctx, coll, res, attrs) {
				oks[ri]++
			}
		}
	})
	ok := 0
	for _, n := range oks {
		ok += n
	}
	return ok
}

// recordLoad folds the snapshot's host_load sample into the resource's
// rolling window and returns a copy to deposit (shared batch buffers
// outlive the next sweep's in-place roll). Disabled, load-less, and
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

// flagDown marks a dead resource's records down in every Collection it
// has joined: Update merges, so the stale attributes survive alongside
// the flag for operators, while schedulers filter on host_alive.
func (d *Daemon) flagDown(ctx context.Context, res loid.LOID, collections []loid.LOID) {
	d.mu.Lock()
	already := d.flagged[res]
	d.flagged[res] = true
	d.mu.Unlock()
	if already {
		return // records already say down; no traffic per sweep
	}
	flag := []attr.Pair{
		{Name: AttrAlive, Value: attr.Bool(false)},
		{Name: AttrState, Value: attr.String(monitor.LivenessDown.String())},
	}
	if d.batching() {
		// UpdateOnly: if the member was never deposited (or was pruned),
		// the shard drops the flag instead of creating a ghost record.
		// A flush failure re-queues the entry, so no error-reset here.
		for _, coll := range collections {
			d.enqueue(ctx, coll, proto.BatchEntry{Member: res, Attrs: flag, UpdateOnly: true})
		}
		return
	}
	for _, coll := range collections {
		if !d.hasJoined(coll, res) {
			continue
		}
		clk := d.rt.Clock()
		cctx := clk.WithDeadline(ctx, clk.Now().Add(d.cfg.CallTimeout))
		d.mu.Lock()
		d.pushCalls++
		d.mu.Unlock()
		_, err := d.call.Call(cctx, coll, proto.MethodUpdateCollectionEntry,
			proto.UpdateArgs{Member: res, Attrs: flag, Credential: d.cfg.Credential})
		vclock.End(cctx)
		if err != nil {
			d.mu.Lock()
			d.errors++
			// Retry the flagging next sweep.
			d.flagged[res] = false
			d.mu.Unlock()
		}
	}
}

func (d *Daemon) joinKey(coll, res loid.LOID) loid.LOID {
	return loid.LOID{Domain: coll.Domain, Class: coll.Class + "/" + res.String(), Instance: coll.Instance}
}

func (d *Daemon) hasJoined(coll, res loid.LOID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.joined[d.joinKey(coll, res)]
}

// deposit pushes one snapshot, joining the member first if needed. In
// batched mode it only buffers the entry — the server-side batch apply
// upserts, so no separate join round-trip (or joined bookkeeping) is
// needed.
func (d *Daemon) deposit(ctx context.Context, coll, res loid.LOID, attrs proto.AttributesReply) bool {
	if d.batching() {
		d.enqueue(ctx, coll, proto.BatchEntry{Member: res, Attrs: attrs.Attrs})
		return true
	}
	clk := d.rt.Clock()
	cctx := clk.WithDeadline(ctx, clk.Now().Add(d.cfg.CallTimeout))
	defer vclock.End(cctx)
	key := d.joinKey(coll, res)
	d.mu.Lock()
	alreadyJoined := d.joined[key]
	d.pushCalls++
	d.mu.Unlock()
	if !alreadyJoined {
		_, err := d.call.Call(cctx, coll, proto.MethodJoinCollection,
			proto.JoinArgs{Joiner: res, Attrs: attrs.Attrs, Credential: d.cfg.Credential})
		if err == nil {
			d.mu.Lock()
			d.joined[key] = true
			d.mu.Unlock()
			return true
		}
		d.mu.Lock()
		d.errors++
		d.mu.Unlock()
		return false
	}
	_, err := d.call.Call(cctx, coll, proto.MethodUpdateCollectionEntry,
		proto.UpdateArgs{Member: res, Attrs: attrs.Attrs, Credential: d.cfg.Credential})
	if err != nil {
		d.mu.Lock()
		d.errors++
		d.mu.Unlock()
		return false
	}
	return true
}

// Start begins periodic sweeps (and, in batched mode, periodic
// flushes); Stop ends them.
func (d *Daemon) Start() {
	clock := d.rt.Clock()
	sweep := clock.NewTicker(d.cfg.Interval)
	clock.Go(func() {
		for sweep.Wait(context.Background()) == nil {
			d.Sweep(context.Background())
		}
		// The last sweep may have run after Stop: flush what it buffered.
		if d.batching() {
			d.FlushAll(context.Background())
		}
	})
	tickers := []vclock.Ticker{sweep}
	if d.batching() {
		flush := clock.NewTicker(d.cfg.BatchInterval)
		clock.Go(func() {
			for flush.Wait(context.Background()) == nil {
				d.FlushAll(context.Background())
			}
		})
		tickers = append(tickers, flush)
	}
	d.mu.Lock()
	d.tickers = append(d.tickers, tickers...)
	d.mu.Unlock()
}

// Stop halts periodic sweeps; buffered entries are flushed so a shutdown
// never strands the last interval's updates. After Start, the sweep loop
// flushes once its last sweep ends; without Start, Stop flushes itself.
// Idempotent.
func (d *Daemon) Stop() {
	d.mu.Lock()
	alreadyStopped, tickers := d.stopped, d.tickers
	d.stopped = true
	d.mu.Unlock()
	if alreadyStopped {
		return
	}
	for _, t := range tickers {
		t.Stop()
	}
	if len(tickers) == 0 && d.batching() {
		d.FlushAll(context.Background())
	}
}

// Stats reports sweep and error counts.
func (d *Daemon) Stats() (sweeps, errors int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sweeps, d.errors
}

// Sheds reports how many buffered batch entries were dropped by the
// overflow cap while a Collection was unreachable.
func (d *Daemon) Sheds() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sheds
}

// PushCalls reports how many ORB calls the daemon has spent pushing
// data into Collections — the quantity batching exists to cut.
func (d *Daemon) PushCalls() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pushCalls
}
