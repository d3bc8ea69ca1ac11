// Package rebalance hardens the §3.5 monitor→migrate feedback loop into
// a production subsystem.
//
// The paper sketches the arc: Hosts carry guarded triggers ("initiate
// object migration if its load rises above a threshold", §2.1), the
// Monitor registers outcalls for them (§3.5), and somebody — "the
// Enactor or Scheduler perform the monitoring" — turns the resulting
// events into new placements. Earlier experiments wired that somebody up
// inline: a synchronous Monitor handler that called core.Migrate on the
// Host's own outcall goroutine, inside the Host's RPC timeout, with no
// concurrency bound, no hysteresis, and no protection against two events
// migrating the same instance at once.
//
// The Rebalancer replaces that with:
//
//   - asynchronous intake: it subscribes via monitor.OnEventAsync, so
//     trigger delivery returns immediately and migration work runs on the
//     Rebalancer's own goroutines behind a bounded queue;
//   - pluggable planning: a Policy maps each trigger event to a set of
//     Moves (default: LeastLoaded — shed the hottest instance from the
//     overloaded host to the least-loaded compatible host, zone- and
//     vault-aware, via the Collection);
//   - damping: a per-host cooldown suppresses re-shedding a host that
//     was just rebalanced, and a global token-bucket rate limit bounds
//     metasystem-wide migration churn;
//   - safety: per-instance serialization comes from core.Migrate's
//     migration locks; the Rebalancer additionally skips instances whose
//     migration is already in flight, and after a failed migration calls
//     core.EnsureRunning so a fault mid-move converges back to "running
//     exactly once". A periodic Reconcile sweep does the same for every
//     managed instance and clears stray OPR copies.
//
// Everything is observable: legion_rebalance_* counters, a migration
// latency histogram, and rebalance/* spans in the runtime's span log.
package rebalance

import (
	"context"
	"errors"
	"sync"
	"time"

	"legion/internal/classobj"
	"legion/internal/core"
	"legion/internal/fanout"
	"legion/internal/loid"
	"legion/internal/proto"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// Move is one planned migration: put Instance of Class on (ToHost,
// ToVault).
type Move struct {
	Class    *classobj.Class
	Instance loid.LOID
	ToHost   loid.LOID
	ToVault  loid.LOID
}

// Policy plans migrations in response to a trigger event. Plan runs on a
// Rebalancer worker goroutine (never on the Monitor delivery path) and
// may query the Collection; returning no moves is the normal "nothing to
// do" outcome.
type Policy interface {
	Plan(ctx context.Context, ev proto.NotifyArgs, ms *core.Metasystem, classes []*classobj.Class) ([]Move, error)
}

// Config parameterizes a Rebalancer. The zero value of every field is
// usable: New fills in defaults.
type Config struct {
	// Classes are the object classes the Rebalancer manages. Instances of
	// other classes are never moved by it.
	Classes []*classobj.Class
	// Policy plans moves from events; nil uses NewLeastLoaded().
	Policy Policy
	// MaxConcurrent bounds simultaneously-executing migrations
	// (default 4).
	MaxConcurrent int
	// Cooldown is the per-source-host hysteresis window: after the
	// Rebalancer sheds load off a host, further events from that host are
	// ignored until the window passes (default 10s). Zero keeps the
	// default; negative disables cooldown.
	Cooldown time.Duration
	// RatePerSec caps metasystem-wide migrations per second via a token
	// bucket with burst MaxConcurrent (default 0 = unlimited).
	RatePerSec float64
	// Clock overrides the time source for cooldown/rate-limit
	// bookkeeping, plan deadlines, and the reconcile sweep; nil means
	// the metasystem runtime's clock.
	Clock vclock.Clock
}

// planTimeout bounds one event's plan+migrate episode, one reconcile
// sweep and one forecast scan.
const planTimeout = 30 * time.Second

// Rebalancer owns the monitor→migrate arc for a metasystem.
type Rebalancer struct {
	ms    *core.Metasystem
	cfg   Config
	clock vclock.Clock
	now   func() time.Time

	mu        sync.Mutex
	started   bool
	stopMon   func() // detaches the OnEventAsync subscription
	stopSweep chan struct{}
	sweepWG   sync.WaitGroup
	stopScan  chan struct{} // forecast scan (predictive.go)
	scanWG    sync.WaitGroup
	lastShed  map[loid.LOID]time.Time // source host -> last successful shed
	inflight  map[loid.LOID]bool      // instances being migrated by us
	tokens    float64                 // rate-limit bucket level
	lastFill  time.Time

	events      *telemetry.Counter
	migrationsO *telemetry.Counter // result="ok"
	migrationsF *telemetry.Counter // result="failed"
	recoveries  *telemetry.Counter
	skipCool    *telemetry.Counter
	skipRate    *telemetry.Counter
	skipBusy    *telemetry.Counter
	skipPlan    *telemetry.Counter
	migSeconds  *telemetry.Histogram
	spans       *telemetry.SpanLog
}

// New builds a Rebalancer over the metasystem. Call Start to subscribe
// it to the Monitor; until then it is inert.
func New(ms *core.Metasystem, cfg Config) *Rebalancer {
	if cfg.Policy == nil {
		cfg.Policy = NewLeastLoaded()
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = 10 * time.Second
	}
	clock := cfg.Clock
	if clock == nil {
		clock = ms.Runtime().Clock()
	}
	now := clock.Now
	reg := ms.Runtime().Metrics()
	r := &Rebalancer{
		ms:          ms,
		cfg:         cfg,
		clock:       clock,
		now:         now,
		lastShed:    make(map[loid.LOID]time.Time),
		inflight:    make(map[loid.LOID]bool),
		tokens:      float64(cfg.MaxConcurrent),
		lastFill:    now(),
		events:      reg.Counter("legion_rebalance_events_total"),
		migrationsO: reg.Counter("legion_rebalance_migrations_total", "result", "ok"),
		migrationsF: reg.Counter("legion_rebalance_migrations_total", "result", "failed"),
		recoveries:  reg.Counter("legion_rebalance_recoveries_total"),
		skipCool:    reg.Counter("legion_rebalance_skipped_total", "reason", "cooldown"),
		skipRate:    reg.Counter("legion_rebalance_skipped_total", "reason", "rate_limited"),
		skipBusy:    reg.Counter("legion_rebalance_skipped_total", "reason", "in_flight"),
		skipPlan:    reg.Counter("legion_rebalance_skipped_total", "reason", "no_plan"),
		migSeconds:  reg.Histogram("legion_rebalance_migration_seconds", telemetry.LatencyBuckets),
		spans:       reg.Spans(),
	}
	return r
}

// Start subscribes the Rebalancer to the metasystem's Monitor. Events
// arriving before Start (or after Stop) are ignored. Start is not
// idempotent-safe to call twice without Stop; it returns an error then.
func (r *Rebalancer) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return errors.New("rebalance: already started")
	}
	r.started = true
	// Depth 0 is the Monitor's own default, monitor.DefaultQueueDepth.
	r.stopMon = r.ms.Monitor.OnEventAsync(0, func(ev proto.NotifyArgs) {
		r.handle(ev)
	})
	return nil
}

// StartSweeping additionally runs Reconcile every interval until Stop.
func (r *Rebalancer) StartSweeping(interval time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopSweep != nil {
		return
	}
	stop := make(chan struct{})
	r.stopSweep = stop
	sctx, scancel := context.WithCancel(context.Background())
	go func() { <-stop; scancel() }()
	r.sweepWG.Add(1)
	r.clock.Go(func() {
		defer r.sweepWG.Done()
		t := r.clock.NewTicker(interval)
		defer t.Stop()
		for t.Wait(sctx) == nil {
			ctx, cancel := r.clock.WithTimeout(context.Background(), planTimeout)
			_ = r.Reconcile(ctx)
			cancel()
		}
	})
}

// Stop detaches from the Monitor and halts the reconcile sweep. Any
// in-flight migration episode finishes on its own goroutine; Stop does
// not wait for it.
func (r *Rebalancer) Stop() {
	r.mu.Lock()
	stopMon := r.stopMon
	stopSweep := r.stopSweep
	stopScan := r.stopScan
	r.stopMon = nil
	r.stopSweep = nil
	r.stopScan = nil
	r.started = false
	r.mu.Unlock()
	if stopMon != nil {
		stopMon()
	}
	if stopSweep != nil {
		close(stopSweep)
		r.sweepWG.Wait()
	}
	if stopScan != nil {
		close(stopScan)
		r.scanWG.Wait()
	}
}

// handle is the per-event worker: damp, plan, execute. It runs on the
// Monitor's async dispatch goroutine for this subscription, so events
// are processed one at a time in arrival order; the moves within one
// event fan out up to MaxConcurrent wide.
func (r *Rebalancer) handle(ev proto.NotifyArgs) {
	r.events.Inc()
	if r.underCooldown(ev.Source) {
		r.skipCool.Inc()
		return
	}

	ctx, cancel := r.clock.WithTimeout(context.Background(), planTimeout)
	defer cancel()
	ctx, span := r.spans.StartIn(ctx, "rebalance/handle_event", r.ms.Domain())

	moves, err := r.cfg.Policy.Plan(ctx, ev, r.ms, r.cfg.Classes)
	if err != nil || len(moves) == 0 {
		r.skipPlan.Inc()
		span.Finish(err)
		return
	}
	ok := r.execute(ctx, moves)
	if ok > 0 {
		r.markShed(ev.Source)
	}
	span.Finish(nil)
}

// Reconcile is the anti-entropy sweep: every instance of every managed
// class is driven back to "running exactly once where its class says,
// with no stray OPR copies" via core.EnsureRunning. It returns the first
// error encountered (after attempting every instance).
func (r *Rebalancer) Reconcile(ctx context.Context) error {
	ctx, span := r.spans.StartIn(ctx, "rebalance/reconcile", r.ms.Domain())
	var firstErr error
	for _, c := range r.cfg.Classes {
		for _, inst := range c.Instances() {
			if r.ms.MigrationInFlight(inst) {
				continue
			}
			if err := r.ensureRunning(ctx, c, inst); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	span.Finish(firstErr)
	return firstErr
}

// ensureRunning wraps core.EnsureRunning with recovery accounting: the
// counter moves only when the instance was actually down beforehand.
func (r *Rebalancer) ensureRunning(ctx context.Context, c *classobj.Class, inst loid.LOID) error {
	wasDown := true
	if hL, _, err := c.WhereIs(inst); err == nil {
		if h := r.ms.HostByLOID(hL); h != nil && h.IsRunning(inst) {
			wasDown = false
		}
	}
	err := r.ms.EnsureRunning(ctx, c, inst)
	if err == nil && wasDown {
		r.recoveries.Inc()
	}
	return err
}

// execute runs the moves with bounded concurrency and returns how many
// succeeded. A failed move triggers EnsureRunning so the instance
// converges back to exactly-once.
func (r *Rebalancer) execute(ctx context.Context, moves []Move) int {
	var okCount int64
	var mu sync.Mutex
	fanout.Do(r.cfg.MaxConcurrent, len(moves), func(i int) {
		m := moves[i]
		if !r.claim(m.Instance) {
			r.skipBusy.Inc()
			return
		}
		defer r.release(m.Instance)
		if !r.takeToken() {
			r.skipRate.Inc()
			return
		}
		mctx, span := r.spans.StartIn(ctx, "rebalance/migrate", r.ms.Domain())
		start := r.now()
		err := r.ms.Migrate(mctx, m.Class, m.Instance, m.ToHost, m.ToVault)
		r.migSeconds.Observe(r.clock.Since(start).Seconds())
		span.Finish(err)
		if err != nil {
			r.migrationsF.Inc()
			// The failure path inside Migrate already restored what it
			// could; EnsureRunning closes the remaining gap (e.g. the
			// source host died between deactivate and recovery).
			_ = r.ensureRunning(mctx, m.Class, m.Instance)
			return
		}
		r.migrationsO.Inc()
		mu.Lock()
		okCount++
		mu.Unlock()
	})
	return int(okCount)
}

// claim marks the instance as being migrated by this Rebalancer;
// returns false if it already is (here or in core).
func (r *Rebalancer) claim(inst loid.LOID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inflight[inst] {
		return false
	}
	if r.ms.MigrationInFlight(inst) {
		return false
	}
	r.inflight[inst] = true
	return true
}

func (r *Rebalancer) release(inst loid.LOID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.inflight, inst)
}

// underCooldown reports whether the source host was shed too recently.
func (r *Rebalancer) underCooldown(src loid.LOID) bool {
	if r.cfg.Cooldown <= 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	last, ok := r.lastShed[src]
	return ok && r.now().Sub(last) < r.cfg.Cooldown
}

func (r *Rebalancer) markShed(src loid.LOID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastShed[src] = r.now()
}

// takeToken consumes one migration token from the global rate bucket.
// With RatePerSec <= 0 every take succeeds.
func (r *Rebalancer) takeToken() bool {
	if r.cfg.RatePerSec <= 0 {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.tokens += now.Sub(r.lastFill).Seconds() * r.cfg.RatePerSec
	if cap := float64(r.cfg.MaxConcurrent); r.tokens > cap {
		r.tokens = cap
	}
	r.lastFill = now
	if r.tokens < 1 {
		return false
	}
	r.tokens--
	return true
}
