package enactor

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// admission is the Enactor's overload gate: a bounded set of in-flight
// negotiation calls plus a bounded priority wait-queue in front of them.
// Requests that cannot be admitted are shed immediately with a typed
// proto.ErrOverload refusal (never silently queued without bound), so
// under sustained overload the Enactor does a bounded amount of work and
// callers learn to back off — the anti-metastability posture.
//
// Shedding policy, in order:
//
//   - "expired": the caller's context is already done, or its deadline
//     has passed — admitting it would only produce doomed work.
//   - free slot: admitted immediately, regardless of fair-share (work
//     conservation: an idle slot never waits on accounting).
//   - "queue_full": the wait-queue is at capacity.
//   - "fair_share": admitting would give the caller's domain more than
//     its share of the wait-queue (queueDepth / (active domains + 1),
//     min 1), so one chatty Scheduler cannot starve the others.
//   - "tenant_share": the same arithmetic applied per economy tenant
//     (DESIGN.md §15) — a tenant with a deep budget still cannot buy
//     more than its share of the admission queue, so money does not
//     translate into queue monopoly. Requests with no tenant skip this
//     check.
//   - "deadline": the estimated queue wait (EWMA of recent service
//     times scaled by queue position) exceeds the request's remaining
//     deadline budget — the request would expire while waiting.
//
// Queued requests dispatch in priority order: higher sched.Priority
// first, arrival order within a priority. A release hands its slot
// straight to the head waiter.
type admission struct {
	slots int // 0 when admission control is disabled
	depth int
	clock vclock.Clock

	mu        sync.Mutex
	running   int                // admitted calls not yet released
	waiting   []*admissionWaiter // dispatch order
	byDomain  map[string]int     // queued waiters per requester domain
	byTenant  map[string]int     // queued waiters per economy tenant
	ewmaSvcNs float64            // EWMA of admitted-call service time

	met admissionMetrics
}

// admissionWaiter is one queued call, parked on its gate until a release
// hands it a slot.
type admissionWaiter struct {
	priority       int
	domain, tenant string
	gate           vclock.Gate
	admitted       bool // handed a slot; guarded by admission.mu
}

// admissionMetrics caches the gate's telemetry handles.
type admissionMetrics struct {
	reg      *telemetry.Registry
	inflight *telemetry.Gauge
	queued   *telemetry.Gauge
	admitted *telemetry.Counter
	waitTime *telemetry.Histogram
}

// ewmaAlpha weights the newest service-time sample in the EWMA the
// deadline-aware shed uses to estimate queue wait.
const ewmaAlpha = 0.2

// newAdmission builds the gate from the Enactor's config; it returns a
// disabled gate (admit everything, track nothing) when MaxInFlight <= 0.
func newAdmission(rt *orb.Runtime, cfg Config) *admission {
	a := &admission{
		byDomain: make(map[string]int),
		byTenant: make(map[string]int),
		clock:    rt.Clock(),
	}
	reg := rt.Metrics()
	a.met = admissionMetrics{
		reg:      reg,
		inflight: reg.Gauge("legion_admission_inflight"),
		queued:   reg.Gauge("legion_admission_queue_depth"),
		admitted: reg.Counter("legion_admission_admitted_total"),
		waitTime: reg.Histogram("legion_admission_wait_seconds", telemetry.LatencyBuckets),
	}
	if cfg.MaxInFlight <= 0 {
		return a
	}
	a.slots = cfg.MaxInFlight
	a.depth = cfg.AdmissionQueue
	if a.depth <= 0 {
		a.depth = 4 * cfg.MaxInFlight
	}
	return a
}

// enabled reports whether the gate actually gates.
func (a *admission) enabled() bool { return a.slots > 0 }

// shed records one refusal and returns the typed overload error.
func (a *admission) shed(reason, method string, priority int) error {
	a.met.reg.Counter("legion_admission_sheds_total", "reason", reason).Inc()
	a.met.reg.Counter("legion_admission_sheds_by_priority_total",
		"priority", strconv.Itoa(priority)).Inc()
	return fmt.Errorf("%w: %s shed (%s)", proto.ErrOverload, method, reason)
}

// acquire admits or sheds one call. On admission it returns a release
// function the caller must invoke when the call finishes; on a shed it
// returns a proto.ErrOverload-wrapped error. method labels metrics;
// domain, tenant and priority drive fair-share and queue ordering
// (tenant may be empty for economy-unaware callers).
func (a *admission) acquire(ctx context.Context, method, domain, tenant string, priority int) (func(), error) {
	if !a.enabled() {
		return func() {}, nil
	}
	// Doomed work is shed before it costs anything — this is also the
	// backstop that keeps an already-expired context from ever reaching
	// make_reservations for in-process callers the ORB's wire-level
	// fast-fail cannot see.
	if err := ctx.Err(); err != nil {
		return nil, a.shed("expired", method, priority)
	}
	enqueued := a.clock.Now()
	if dl, ok := ctx.Deadline(); ok && !dl.After(enqueued) {
		return nil, a.shed("expired", method, priority)
	}

	a.mu.Lock()
	if a.running < a.slots {
		a.running++
		a.setGaugesLocked()
		a.mu.Unlock()
		return a.admit(enqueued), nil
	}
	if reason := a.queueShedLocked(ctx, domain, tenant); reason != "" {
		a.mu.Unlock()
		return nil, a.shed(reason, method, priority)
	}
	w := &admissionWaiter{priority: priority, domain: domain, tenant: tenant, gate: a.clock.NewGate()}
	i := len(a.waiting)
	for i > 0 && a.waiting[i-1].priority < priority {
		i--
	}
	a.waiting = slices.Insert(a.waiting, i, w)
	a.byDomain[domain]++
	if tenant != "" {
		a.byTenant[tenant]++
	}
	a.setGaugesLocked()
	a.mu.Unlock()

	if w.gate.Wait(ctx) != nil {
		// The caller gave up while queued. If a release handed it the
		// slot meanwhile, the slot goes on to the next waiter; either way
		// nothing downstream ran.
		a.mu.Lock()
		if w.admitted {
			a.freeSlotLocked()
		} else {
			a.dequeueLocked(slices.Index(a.waiting, w))
		}
		a.setGaugesLocked()
		a.mu.Unlock()
		return nil, a.shed("expired", method, priority)
	}
	return a.admit(enqueued), nil
}

// queueShedLocked returns why a call that must queue is refused, or ""
// when it may queue. a.mu must be held.
func (a *admission) queueShedLocked(ctx context.Context, domain, tenant string) string {
	queued := len(a.waiting)
	if queued >= a.depth {
		return "queue_full"
	}
	// Fair share of the wait-queue per requester domain, then per economy
	// tenant: several schedulers in one domain working for the same
	// tenant still cannot jointly pack the queue past the tenant's share.
	if a.byDomain[domain] >= a.share(a.byDomain, domain) {
		return "fair_share"
	}
	if tenant != "" && a.byTenant[tenant] >= a.share(a.byTenant, tenant) {
		return "tenant_share"
	}
	// Deadline-aware shed: refuse now if the expected wait alone would
	// blow the caller's deadline. Expected wait ≈ EWMA service time ×
	// (queue position) / slots; position is pessimistically the whole
	// current queue (priority may let us jump it, so this only sheds when
	// even head-of-line service would be too slow relative to the crowd).
	if dl, ok := ctx.Deadline(); ok && a.ewmaSvcNs > 0 {
		estWait := time.Duration(a.ewmaSvcNs * float64(queued+1) / float64(a.slots))
		if estWait > a.clock.Until(dl) {
			return "deadline"
		}
	}
	return ""
}

// share is the most queued waiters key may hold: depth/(active keys+1),
// min 1, counting key as active. The +1 keeps headroom for a key that
// has not arrived yet, so one chatty Scheduler can never pack the queue
// solid and leave a newcomer facing queue_full before fairness can
// arbitrate. A free execution slot admits regardless — fairness only
// arbitrates scarcity.
func (a *admission) share(queued map[string]int, key string) int {
	active := len(queued)
	if queued[key] == 0 {
		active++
	}
	return max(1, a.depth/(active+1))
}

// admit counts one admission that queued at enqueued and returns its
// release: the call's service time feeds the EWMA, and its slot goes to
// the head waiter.
func (a *admission) admit(enqueued time.Time) func() {
	startedAt := a.clock.Now()
	a.met.admitted.Inc()
	a.met.waitTime.Observe(startedAt.Sub(enqueued).Seconds())
	released := false
	return func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		if released {
			return
		}
		released = true
		sample := float64(a.clock.Since(startedAt))
		if a.ewmaSvcNs == 0 {
			a.ewmaSvcNs = sample
		} else {
			a.ewmaSvcNs += ewmaAlpha * (sample - a.ewmaSvcNs)
		}
		a.freeSlotLocked()
		a.setGaugesLocked()
	}
}

// freeSlotLocked hands a freed slot to the head waiter or, when nobody
// waits, lets it go idle. a.mu must be held.
func (a *admission) freeSlotLocked() {
	if len(a.waiting) == 0 {
		a.running--
		return
	}
	w := a.dequeueLocked(0)
	w.admitted = true
	// The wake is an event on the clock, as the Monitor's is: under a
	// virtual clock the admitted call runs only once the releaser has
	// parked, so a world with admission on replays.
	a.clock.Go(w.gate.Signal)
}

// dequeueLocked takes waiter i out of the queue and out of the
// fair-share accounts. a.mu must be held.
func (a *admission) dequeueLocked(i int) *admissionWaiter {
	w := a.waiting[i]
	a.waiting = slices.Delete(a.waiting, i, i+1)
	leave(a.byDomain, w.domain)
	if w.tenant != "" {
		leave(a.byTenant, w.tenant)
	}
	return w
}

// leave drops one waiter from key's fair-share account.
func leave(queued map[string]int, key string) {
	if queued[key] <= 1 {
		delete(queued, key)
	} else {
		queued[key]--
	}
}

// setGaugesLocked publishes the gate's occupancy. a.mu must be held, so
// the gauges never show a stale count written late.
func (a *admission) setGaugesLocked() {
	a.met.inflight.Set(int64(a.running))
	a.met.queued.Set(int64(len(a.waiting)))
}
