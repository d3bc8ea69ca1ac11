// Package enactor implements the Legion Enactor (paper §3.4, Figure 6).
//
// "A Scheduler first passes in the entire set of schedules to the
// make_reservations() call, and waits for feedback. ... If any schedule
// succeeded, the Scheduler can then use the enact_schedule() call to
// request that the Enactor instantiate objects on the reserved resources,
// or the cancel_reservations() method to release the resources."
//
// The Enactor negotiates with the Hosts and Vaults named in a schedule —
// possibly across administrative domains (co-allocation) — walking master
// schedules in order and patching individual failed mappings with variant
// schedules selected through the per-variant bitmaps. Reservations that a
// variant leaves unchanged are kept, avoiding "reservation thrashing (the
// canceling and subsequent remaking of the same reservation)".
//
// Per-resource negotiation calls within one request fan out across hosts
// through a bounded worker pool (Config.Parallelism): each reservation
// round reserves every not-yet-held mapping concurrently and collects
// the failures into one bitmap before selecting a variant, k-of-n groups
// probe their next K-got preferred alternatives per wave, and
// create_instance, rollback and cancellation calls run concurrently too.
// The variant semantics are unchanged from the serial walk — held
// entries are never re-made, and the serial loop never short-circuited a
// round either, so the collected bitmap equals the serial one.
//
// Reservation-making is all-or-nothing per master: if no master can be
// fully reserved, everything obtained along the way is cancelled and the
// feedback classifies the failure (resources / malformed / other).
package enactor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"legion/internal/economy"
	"legion/internal/fanout"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/reservation"
	"legion/internal/resilient"
	"legion/internal/sched"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// Errors returned by Enactor operations.
var (
	// ErrUnknownRequest reports an enact/cancel for a request ID with no
	// held reservations.
	ErrUnknownRequest = errors.New("enactor: unknown request")
	// ErrNotReserved reports an enact for a request whose reservations
	// were never successfully made.
	ErrNotReserved = errors.New("enactor: request has no successful reservation set")
)

// defaultDuration applies when a request's ReservationSpec has zero
// duration.
const defaultDuration = time.Hour

// Config parameterizes an Enactor.
type Config struct {
	// CallTimeout bounds each per-resource negotiation call (the whole
	// retry budget for that call); defaults to 30 seconds.
	CallTimeout time.Duration
	// Retry shapes per-resource call retries. The zero value means up to
	// 3 attempts with short exponential backoff; transient transport
	// faults on a flaky Host are absorbed here before the Enactor falls
	// back to variant schedules.
	Retry resilient.Policy
	// Breakers is the per-Host circuit-breaker pool: repeatedly
	// unreachable Hosts fail fast with ErrCircuitOpen instead of absorbing
	// a retry budget per mapping. Share one (e.g. the Metasystem's
	// domain-wide set, so a Host failing in the Enactor fails fast in the
	// scheduler path and vice versa); nil means a private set with
	// resilient defaults on the runtime's clock.
	Breakers *resilient.BreakerSet
	// Parallelism bounds how many per-resource negotiation calls
	// (reservations, k-of-n probes, create_instance, rollbacks and
	// cancellations) run concurrently within one request. Zero means 8;
	// 1 reverts to the serial host-by-host walk (ablation baseline).
	Parallelism int
	// MaxInFlight bounds concurrently executing admission-gated calls
	// (make_reservations and enact_schedule). Zero disables admission
	// control entirely — every call is admitted, matching the
	// pre-admission behaviour.
	MaxInFlight int
	// AdmissionQueue bounds the priority wait-queue in front of the
	// in-flight slots; requests beyond it are shed with
	// orb.ErrOverload. Zero means 4×MaxInFlight.
	AdmissionQueue int
	// Ledger, when non-nil, is the economy accounting the Enactor
	// reconciles (DESIGN.md §15): every granted reservation is charged
	// to the request's tenant at the host-quoted price when the grant is
	// made, and refunded exactly once when the token is cancelled,
	// rolled back, preempted or swept. Nil disables economy accounting
	// (all placements are free).
	Ledger *economy.Ledger
}

// heldRequest is the Enactor's retained state for one scheduling episode.
// resolved and tokens are immutable once the request is published; the
// remaining fields are guarded by the Enactor's mu.
type heldRequest struct {
	resolved []sched.Mapping
	tokens   []reservation.Token
	reserved time.Time         // when the reservations were made (TTL sweep)
	priority int               // admission class carried from make_reservations
	domain   string            // requester domain, for fair-share accounting
	tenant   string            // economy tenant, for ledger and tenant quotas
	inflight bool              // an EnactSchedule is executing now
	outcome  *proto.EnactReply // recorded result of the first enactment
	// ended is released when the in-flight enactment ends. The first
	// caller to wait on it creates it, so an uncontended enactment has
	// none. It is a Group of the runtime's clock: under vclock.Virtual a
	// sync.Cond would park the waiter where the engine cannot see it.
	ended vclock.Group
}

// Enactor implements the schedule-implementation role. Safe for
// concurrent use; distinct requests negotiate independently.
type Enactor struct {
	*orb.ServiceObject
	rt      *orb.Runtime
	cfg     Config
	call    *resilient.Caller // resilient path for negotiation calls
	cleanup *resilient.Caller // breaker-free path for rollback/cancel

	adm *admission // overload gate for wire-facing calls

	mu       sync.Mutex
	requests map[uint64]*heldRequest
	nextID   uint64

	statsMu sync.Mutex
	total   sched.EnactmentStats

	met enactorMetrics
}

// enactorMetrics holds the Enactor's telemetry handles, cached at New so
// the negotiation hot path does no registry lookups.
type enactorMetrics struct {
	spans      *telemetry.SpanLog
	domain     string
	requested  *telemetry.Counter
	granted    *telemetry.Counter
	cancelled  *telemetry.Counter
	variants   *telemetry.Counter
	enactments *telemetry.Counter
	rollbacks  *telemetry.Counter
	mresTime   *telemetry.Histogram
	enactTime  *telemetry.Histogram
}

func newEnactorMetrics(rt *orb.Runtime) enactorMetrics {
	reg := rt.Metrics()
	return enactorMetrics{
		spans:      reg.Spans(),
		domain:     rt.Domain(),
		requested:  reg.Counter("legion_enactor_reservations_requested_total"),
		granted:    reg.Counter("legion_enactor_reservations_granted_total"),
		cancelled:  reg.Counter("legion_enactor_reservations_cancelled_total"),
		variants:   reg.Counter("legion_enactor_variants_tried_total"),
		enactments: reg.Counter("legion_enactor_enactments_total"),
		rollbacks:  reg.Counter("legion_enactor_rollbacks_total"),
		mresTime:   reg.Histogram("legion_enactor_make_reservations_seconds", telemetry.LatencyBuckets),
		enactTime:  reg.Histogram("legion_enactor_enact_schedule_seconds", telemetry.LatencyBuckets),
	}
}

// New creates an Enactor, registers its methods and itself with rt.
func New(rt *orb.Runtime, cfg Config) *Enactor {
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 30 * time.Second
	}
	if cfg.Retry.MaxAttempts <= 0 {
		cfg.Retry.MaxAttempts = 3
	}
	if cfg.Retry.Budget <= 0 {
		cfg.Retry.Budget = cfg.CallTimeout
	}
	if cfg.Retry.AttemptTimeout <= 0 {
		// A hung Host must not consume the whole budget in one attempt.
		cfg.Retry.AttemptTimeout = cfg.Retry.Budget / time.Duration(cfg.Retry.MaxAttempts)
	}
	if cfg.Retry.Clock == nil {
		cfg.Retry.Clock = rt.Clock()
	}
	if cfg.Breakers == nil {
		cfg.Breakers = resilient.NewBreakerSet(resilient.BreakerConfig{}, rt.Clock())
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 8
	}
	e := &Enactor{
		ServiceObject: orb.NewServiceObject(rt.Mint("Enactor")),
		rt:            rt,
		cfg:           cfg,
		requests:      make(map[uint64]*heldRequest),
		met:           newEnactorMetrics(rt),
		adm:           newAdmission(rt, cfg),
	}
	e.call = resilient.NewCaller(rt, cfg.Retry, cfg.Breakers)
	// Cleanup (rollback destroys, reservation cancels) bypasses the
	// breakers: the failures that trigger a rollback are often exactly
	// what opened the endpoint's breaker, and failing the destroy fast
	// would leak the instances the rollback exists to reclaim. The retry
	// policy still bounds the attempts.
	e.cleanup = resilient.NewCaller(rt, cfg.Retry, nil)
	e.installMethods()
	rt.Register(e)
	return e
}

// Breakers exposes the Enactor's per-endpoint breaker states — chaos
// tests and operators read these.
func (e *Enactor) Breakers() *resilient.BreakerSet { return e.call.Breakers() }

// fanOut runs fn(i) for i in [0, n) under the configured parallelism
// bound. Callbacks write results into per-index slots; the callers keep
// all stats accounting on their own goroutine after the join, so the
// shared EnactmentStats never crosses goroutines.
func (e *Enactor) fanOut(n int, fn func(i int)) {
	fanout.Do(e.rt.Clock(), e.cfg.Parallelism, n, fn)
}

// NewRequestID mints a fresh request ID for a scheduling episode.
func (e *Enactor) NewRequestID() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextID++
	return e.nextID
}

// TotalStats returns accumulated negotiation statistics across all
// episodes (the thrash-avoidance experiments read these).
func (e *Enactor) TotalStats() sched.EnactmentStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.total
}

func (e *Enactor) accumulate(s sched.EnactmentStats) {
	e.statsMu.Lock()
	e.total.ReservationsRequested += s.ReservationsRequested
	e.total.ReservationsGranted += s.ReservationsGranted
	e.total.ReservationsCancelled += s.ReservationsCancelled
	e.total.VariantsTried += s.VariantsTried
	e.total.MastersTried += s.MastersTried
	e.statsMu.Unlock()
	e.met.requested.Add(int64(s.ReservationsRequested))
	e.met.granted.Add(int64(s.ReservationsGranted))
	e.met.cancelled.Add(int64(s.ReservationsCancelled))
	e.met.variants.Add(int64(s.VariantsTried))
}

// MakeReservations attempts to reserve resources for the request and
// returns LegionScheduleFeedback. On success the Enactor retains the
// reservations for a later EnactSchedule or CancelReservations keyed by
// request.ID.
func (e *Enactor) MakeReservations(ctx context.Context, request sched.RequestList) sched.Feedback {
	return e.makeReservations(ctx, request, "")
}

// makeReservations is MakeReservations plus the requester's domain,
// retained on the held request so a later enact_schedule is accounted
// to the same fair-share bucket and priority class at admission.
func (e *Enactor) makeReservations(ctx context.Context, request sched.RequestList, domain string) sched.Feedback {
	ctx, span := e.met.spans.Start(ctx, e.rt.Clock(), "enactor/make_reservations", e.met.domain)
	var spanErr error
	defer func() { e.met.mresTime.Observe(span.Finish(spanErr).Seconds()) }()

	e.mu.Lock()
	e.reapLocked(e.rt.Clock().Now())
	e.mu.Unlock()

	fb := sched.Feedback{Request: request, MasterIndex: -1}
	if err := request.Validate(); err != nil {
		fb.Reason = sched.FailureMalformed
		fb.Detail = err.Error()
		spanErr = err
		return fb
	}
	spec := request.Res
	if spec.Timeout < 0 {
		// A negative confirmation window is malformed, not "host
		// default": hosts reject it (reservation.ErrBadRequest), and
		// letting it through would burn a full negotiation round to
		// learn that. Same semantics as reservation.Table.Make.
		fb.Reason = sched.FailureMalformed
		fb.Detail = fmt.Sprintf("negative reservation confirmation timeout %v", spec.Timeout)
		spanErr = errors.New(fb.Detail)
		return fb
	}
	if spec.Duration <= 0 {
		spec.Duration = defaultDuration
	}

	for mi := range request.Masters {
		fb.Stats.MastersTried++
		resolved, tokens, costs, applied, ok := e.tryMaster(ctx, &request.Masters[mi], spec, &fb.Stats)
		if ok {
			if err := e.chargeTokens(ctx, spec, resolved, tokens, costs); err != nil {
				// A budget refusal is terminal for the whole request, not
				// just this master: the tenant cannot pay, and later
				// masters would bill the same account.
				fb.Stats.ReservationsCancelled += len(tokens)
				fb.Reason = sched.FailureResources
				fb.Detail = err.Error()
				spanErr = err
				e.accumulate(fb.Stats)
				return fb
			}
			fb.Success = true
			fb.MasterIndex = mi
			fb.Resolved = resolved
			fb.VariantsApplied = applied
			e.mu.Lock()
			e.requests[request.ID] = &heldRequest{
				resolved: resolved, tokens: tokens, reserved: e.rt.Clock().Now(),
				priority: request.Res.Priority, domain: domain, tenant: spec.Tenant,
			}
			e.mu.Unlock()
			e.accumulate(fb.Stats)
			return fb
		}
	}
	fb.Reason = sched.FailureResources
	fb.Detail = fmt.Sprintf("no master schedule of %d fully reservable", len(request.Masters))
	spanErr = errors.New(fb.Detail)
	e.accumulate(fb.Stats)
	return fb
}

// slot is one reservation asked for in a round: the index of its mapping
// in current (in a k-of-n wave, the slot's own place in the wave gives
// the alternative), and the grant, written by the fan-out goroutine that
// asked and read once the round has joined.
type slot struct {
	i    int
	tok  reservation.Token
	cost float64
	ok   bool
}

// tryMaster negotiates one master schedule with variant patching. It
// returns the resolved mappings, tokens and per-token host-quoted costs
// on success; on failure it has already cancelled everything it
// obtained.
func (e *Enactor) tryMaster(ctx context.Context, m *sched.Master, spec sched.ReservationSpec, stats *sched.EnactmentStats) ([]sched.Mapping, []reservation.Token, []float64, []int, bool) {
	current := append([]sched.Mapping(nil), m.Mappings...)
	tokens := make([]reservation.Token, len(current))
	costs := make([]float64, len(current))
	held := make([]bool, len(current))
	var applied []int

	cancelAll := func() {
		var idxs []int
		for i := range held {
			if held[i] {
				idxs = append(idxs, i)
			}
		}
		e.fanOut(len(idxs), func(j int) {
			i := idxs[j]
			e.cancelToken(ctx, current[i].Host, tokens[i])
		})
		for _, i := range idxs {
			held[i] = false
		}
		stats.ReservationsCancelled += len(idxs)
	}

	variantCursor := 0
	for {
		// Reserve every mapping not already held, fanned out across the
		// hosts. Failures are collected into one bitmap after the round
		// joins — the same bitmap the serial walk produced, since it
		// never short-circuited a round either — and variant selection
		// runs on the collected result.
		round := make([]slot, 0, len(current))
		for i := range current {
			if !held[i] {
				round = append(round, slot{i: i})
			}
		}
		stats.ReservationsRequested += len(round)
		e.fanOut(len(round), func(j int) {
			s := &round[j]
			var err error
			s.tok, s.cost, err = e.reserve(ctx, current[s.i], spec)
			s.ok = err == nil
		})
		var failedIdx []int
		for j := range round {
			s := &round[j]
			if !s.ok {
				failedIdx = append(failedIdx, s.i)
				continue
			}
			tokens[s.i] = s.tok
			costs[s.i] = s.cost
			held[s.i] = true
			stats.ReservationsGranted++
		}
		if len(failedIdx) == 0 {
			// Base mappings are fully reserved; satisfy the k-of-n
			// equivalence-class groups (§3.3): any K of each group's
			// alternatives, in preference order. Each wave probes exactly
			// the K-got next preferred alternatives concurrently and
			// appends the successes in preference order, so a group never
			// over-reserves and the chosen set matches the serial walk
			// whenever the same probes succeed.
			for gi := range m.KofN {
				g := &m.KofN[gi]
				got := 0
				next := 0
				for got < g.K && next < len(g.Alternatives) {
					wave := g.Alternatives[next:min(next+g.K-got, len(g.Alternatives))]
					next += len(wave)
					stats.ReservationsRequested += len(wave)
					probes := make([]slot, len(wave))
					e.fanOut(len(wave), func(j int) {
						s := &probes[j]
						gm := sched.Mapping{Class: g.Class, Host: wave[j].Host, Vault: wave[j].Vault}
						var err error
						s.tok, s.cost, err = e.reserve(ctx, gm, spec)
						s.ok = err == nil
					})
					for j := range probes {
						s := &probes[j]
						if !s.ok {
							continue
						}
						current = append(current, sched.Mapping{Class: g.Class, Host: wave[j].Host, Vault: wave[j].Vault})
						tokens = append(tokens, s.tok)
						costs = append(costs, s.cost)
						held = append(held, true)
						got++
						stats.ReservationsGranted++
					}
				}
				if got < g.K {
					cancelAll()
					return nil, nil, nil, nil, false
				}
			}
			return current, tokens, costs, applied, true
		}
		failed := sched.NewBitmapOf(len(current), failedIdx...)

		// Select the next variant whose bitmap covers a failed entry.
		vi := m.NextVariant(variantCursor, failed)
		if vi < 0 {
			cancelAll()
			return nil, nil, nil, nil, false
		}
		variantCursor = vi + 1
		stats.VariantsTried++
		applied = append(applied, vi)

		// Apply the variant — but only to entries that actually failed.
		// Entries whose reservations are already held keep them even if
		// the variant offers an alternative: this is how "our default
		// Schedulers and Enactor work together to structure the variant
		// schedules so as to avoid reservation thrashing (the canceling
		// and subsequent remaking of the same reservation)".
		for _, r := range m.Variants[vi].Replacements {
			i := r.Index
			if i < 0 || i >= len(current) || held[i] {
				continue
			}
			current[i] = r.Mapping
		}
	}
}

// reserve asks one Host for one reservation, retrying transient
// transport faults (and failing fast on an open breaker) before the
// caller falls back to variant schedules. A retry after an ambiguous
// failure can double-grant; the orphan grant is unconfirmed and is
// reclaimed by the Host's confirmation timeout / reservation reaper.
// reserve runs on fan-out goroutines, so it touches no shared state —
// the callers do all stats accounting after the round joins. The second
// return is the host-quoted cost of the grant in price units (zero for
// unpriced hosts), which the caller bills to the tenant's ledger.
func (e *Enactor) reserve(ctx context.Context, m sched.Mapping, spec sched.ReservationSpec) (reservation.Token, float64, error) {
	reply, err := orb.As[proto.MakeReservationReply](e.call.Call(ctx, m.Host, proto.MethodMakeReservation, proto.MakeReservationArgs{
		Requester: e.LOID(),
		Vault:     m.Vault,
		Type:      reservation.Type{Share: spec.Share, Reuse: spec.Reuse},
		Start:     spec.Start,
		Duration:  spec.Duration,
		Timeout:   spec.Timeout,
		Priority:  spec.Priority,
		Tenant:    spec.Tenant,
	}))
	if err != nil {
		return reservation.Token{}, 0, err
	}
	return reply.Token, reply.Cost, nil
}

// chargeTokens bills the request's tenant for every granted token at the
// host-quoted price, after enforcing the request's own budget cap. On
// any refusal it cancels every token (which refunds whatever was already
// charged through the cancelToken choke point), so a request either
// holds fully funded reservations or holds nothing.
func (e *Enactor) chargeTokens(ctx context.Context, spec sched.ReservationSpec, resolved []sched.Mapping, tokens []reservation.Token, costs []float64) error {
	led := e.cfg.Ledger
	if led == nil {
		return nil
	}
	var total float64
	for _, c := range costs {
		total += c
	}
	var err error
	if spec.Budget > 0 && total > spec.Budget {
		err = fmt.Errorf("enactor: schedule cost %.6g exceeds request budget %.6g (tenant %q)",
			total, spec.Budget, spec.Tenant)
	}
	for i := range tokens {
		if err != nil {
			break
		}
		if cerr := led.Charge(spec.Tenant, tokens[i].Host, tokens[i].ID, economy.ToCredits(costs[i])); cerr != nil {
			err = fmt.Errorf("enactor: tenant %q: %w", spec.Tenant, cerr)
		}
	}
	if err == nil {
		return nil
	}
	e.fanOut(len(tokens), func(i int) {
		e.cancelToken(ctx, resolved[i].Host, tokens[i])
	})
	return err
}

// cancelToken releases one reservation, retrying transient faults and
// tolerating final failure (the host may be gone; its confirmation
// timeout or reservation reaper will reclaim the grant). Like reserve,
// it is called from fan-out goroutines and touches no shared state.
// Cancellation is the ledger's refund choke point: every path that gives
// a token up — variant cancelAll, rollback, CancelReservations, a failed
// charge — funnels through here, and Refund is exactly-once per token,
// so the refund lands even if the cancel RPC itself is lost (the host's
// reaper reclaims the grant; the tenant is not billed for it).
func (e *Enactor) cancelToken(ctx context.Context, hostL loid.LOID, tok reservation.Token) {
	if e.cfg.Ledger != nil {
		e.cfg.Ledger.Refund(tok.Host, tok.ID)
	}
	_, _ = e.cleanup.Call(ctx, hostL, proto.MethodCancelReservation, proto.TokenArgs{Token: tok})
}

// EnactSchedule instantiates the objects of a successfully reserved
// request by invoking create_instance on the class objects named in the
// resolved mappings, passing the directed placement (§3.4 steps 7-9). On
// any failure it rolls back: created instances are destroyed and
// remaining reservations cancelled.
func (e *Enactor) EnactSchedule(ctx context.Context, requestID uint64) (reply proto.EnactReply) {
	ctx, span := e.met.spans.Start(ctx, e.rt.Clock(), "enactor/enact_schedule", e.met.domain)
	defer func() {
		var spanErr error
		if !reply.Success {
			spanErr = errors.New(reply.Detail)
		}
		e.met.enactTime.Observe(span.Finish(spanErr).Seconds())
		e.met.enactments.Inc()
	}()

	e.mu.Lock()
	req, ok := e.requests[requestID]
	if !ok {
		e.mu.Unlock()
		return proto.EnactReply{Success: false, Detail: ErrUnknownRequest.Error()}
	}
	// Exactly one invocation runs the create_instance loop. A concurrent
	// retry (the server dispatches each request on its own goroutine, and
	// the Wrapper re-sends enact_schedule after an attempt timeout while
	// the first invocation may still be executing) waits here for the
	// in-flight enactment rather than racing a second pass against it —
	// which would duplicate running instances and let one invocation's
	// rollback destroy the other's successful enactment.
	e.awaitEnactmentLocked(req)
	if req.outcome != nil {
		// Idempotent at-least-once semantics: a caller retrying after a
		// lost reply gets the recorded outcome of the first enactment. A
		// recorded failure is final too — rollback already cancelled the
		// reservations, so re-running could never succeed.
		out := *req.outcome
		e.mu.Unlock()
		return out
	}
	req.inflight = true
	e.mu.Unlock()

	out := e.enact(ctx, req)

	e.mu.Lock()
	req.outcome = &out
	req.inflight = false
	if req.ended != nil {
		req.ended.Done()
		req.ended = nil
	}
	e.mu.Unlock()
	return out
}

// awaitEnactmentLocked returns once req has no enactment in flight. The
// wait lasts until the enactment ends, whatever the waiter's context:
// the outcome it records is the waiter's answer too. Callers hold e.mu;
// it is released while waiting.
func (e *Enactor) awaitEnactmentLocked(req *heldRequest) {
	for req.inflight {
		if req.ended == nil {
			req.ended = e.rt.Clock().NewGroup()
			req.ended.Add(1)
		}
		ended := req.ended
		e.mu.Unlock()
		_ = ended.Wait(context.Background())
		e.mu.Lock()
	}
}

// enact runs the create_instance loop for a held request. The caller has
// claimed the request's inflight flag, so exactly one enact runs per
// request at a time.
func (e *Enactor) enact(ctx context.Context, req *heldRequest) proto.EnactReply {
	// create_instance is not idempotent (a duplicate leaks a running
	// object), so only faults that provably never reached the class
	// object are retried.
	createPolicy := e.call.Policy()
	createPolicy.Retryable = resilient.NeverReached

	created := make([][]loid.LOID, len(req.resolved))
	errs := make([]error, len(req.resolved))
	e.fanOut(len(req.resolved), func(i int) {
		m := req.resolved[i]
		reply, err := orb.As[proto.CreateInstanceReply](e.call.CallPolicy(ctx, createPolicy, m.Class, proto.MethodCreateInstance, proto.CreateInstanceArgs{
			Count: 1,
			Placement: &proto.Placement{
				Host:  m.Host,
				Vault: m.Vault,
				Token: req.tokens[i],
			},
		}))
		if err == nil && len(reply.Instances) == 0 {
			err = errors.New("no instance created")
		}
		if err != nil {
			errs[i] = fmt.Errorf("create_instance for mapping %d (%v): %w", i, m, err)
			return
		}
		created[i] = reply.Instances
	})
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		// Prefer a root-cause error over a breaker refusal: when one
		// mapping's failures open the class endpoint's breaker, its
		// siblings fail with ErrCircuitOpen — a symptom of the same
		// outage, and useless as a diagnostic on its own.
		if !errors.Is(err, resilient.ErrCircuitOpen) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		// Concurrent siblings of the failed call run to completion, so
		// rollback destroys every instance that did get created, not
		// just a prefix.
		e.rollback(ctx, req, created)
		return proto.EnactReply{Success: false, Detail: firstErr.Error()}
	}
	return proto.EnactReply{Success: true, Instances: created}
}

// rollback destroys whatever instances were created and cancels the
// remaining (unredeemed or reusable) reservations, fanning the calls
// out across the hosts involved.
func (e *Enactor) rollback(ctx context.Context, req *heldRequest, created [][]loid.LOID) {
	// Detach from the caller's cancellation: the most common reason to
	// be here under overload is that the client's deadline expired
	// mid-enactment, and rollback run under that dead context would
	// fail every destroy/cancel call — leaking the very tokens it
	// exists to reclaim. Trace/span values are kept; only the
	// cancellation signal is dropped, re-bounded by a cleanup budget.
	clk := e.rt.Clock()
	ctx = clk.WithDeadline(context.WithoutCancel(ctx), clk.Now().Add(30*time.Second))
	defer vclock.End(ctx)
	ctx, span := e.met.spans.Start(ctx, clk, "enactor/rollback", e.met.domain)
	defer span.Finish(nil)
	e.met.rollbacks.Inc()
	type target struct{ class, inst loid.LOID }
	var destroy []target
	for i, insts := range created {
		for _, inst := range insts {
			destroy = append(destroy, target{class: req.resolved[i].Class, inst: inst})
		}
	}
	e.fanOut(len(destroy), func(j int) {
		// Cleanup path: parallel create failures may have opened the class
		// endpoint's breaker, and destroy must still get through.
		_, _ = e.cleanup.Call(ctx, destroy[j].class, proto.MethodDestroyInstance,
			proto.ObjectArgs{Object: destroy[j].inst})
	})
	e.fanOut(len(req.tokens), func(i int) {
		e.cancelToken(ctx, req.resolved[i].Host, req.tokens[i])
	})
	e.accumulate(sched.EnactmentStats{ReservationsCancelled: len(req.tokens)})
}

// CancelReservations releases a request's reservations without enacting.
func (e *Enactor) CancelReservations(ctx context.Context, requestID uint64) error {
	e.mu.Lock()
	req, ok := e.requests[requestID]
	if ok {
		// Never yank reservations out from under a running enactment.
		e.awaitEnactmentLocked(req)
		delete(e.requests, requestID)
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownRequest, requestID)
	}
	e.fanOut(len(req.tokens), func(i int) {
		e.cancelToken(ctx, req.resolved[i].Host, req.tokens[i])
	})
	e.accumulate(sched.EnactmentStats{ReservationsCancelled: len(req.tokens)})
	return nil
}

// Enacted returns the instances created for a request, per resolved
// mapping, once EnactSchedule has succeeded.
func (e *Enactor) Enacted(requestID uint64) ([][]loid.LOID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	req, ok := e.requests[requestID]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownRequest, requestID)
	}
	if req.outcome == nil || !req.outcome.Success {
		return nil, ErrNotReserved
	}
	return req.outcome.Instances, nil
}

// requestTTL bounds how long a reserved-but-never-enacted episode's
// state is retained. The Wrapper mints a fresh request ID per
// make_reservations transport attempt, so an attempt whose success reply
// was lost leaves an orphan entry here forever; entries older than the
// TTL are swept (their unconfirmed grants are reclaimed host-side by the
// confirmation timeout / reservation reaper).
const requestTTL = 5 * time.Minute

// reapLocked deletes abandoned episodes: requests reserved more than
// requestTTL ago that never successfully enacted (including recorded
// failures the caller stopped retrying). Their unconfirmed grants are
// reclaimed host-side by the confirmation timeout / reservation reaper;
// this sweep bounds the Enactor-side map, which would otherwise grow
// without limit under sustained transport faults (the Wrapper mints a
// fresh request ID per make_reservations attempt). Callers hold e.mu.
func (e *Enactor) reapLocked(now time.Time) {
	for id, req := range e.requests {
		if req.inflight || (req.outcome != nil && req.outcome.Success) {
			continue
		}
		if now.Sub(req.reserved) > requestTTL {
			// The sweep drops tokens without calling cancelToken (the
			// hosts reclaim them on their own), so it must refund the
			// ledger explicitly or the tenant pays for swept grants.
			if e.cfg.Ledger != nil {
				for _, tok := range req.tokens {
					e.cfg.Ledger.Refund(tok.Host, tok.ID)
				}
			}
			delete(e.requests, id)
		}
	}
}

// requestClass reports the admission class (priority, requester domain,
// economy tenant) recorded when a request's reservations were made; zero
// values for an unknown request (it still passes admission, then fails
// the lookup).
func (e *Enactor) requestClass(requestID uint64) (int, string, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if req, ok := e.requests[requestID]; ok {
		return req.priority, req.domain, req.tenant
	}
	return 0, "", ""
}

// Ledger exposes the Enactor's economy ledger (nil when accounting is
// disabled) — experiments and the account_* wire methods read it.
func (e *Enactor) Ledger() *economy.Ledger { return e.cfg.Ledger }

func (e *Enactor) installMethods() {
	e.Handle(proto.MethodMakeReservations, orb.Typed(func(ctx context.Context, a proto.MakeReservationsArgs) (any, error) {
		// The overload gate guards the wire-facing entry point: a shed
		// crosses back as a typed orb.ErrOverload refusal (classified
		// permanent — never a breaker strike), and nothing downstream
		// runs for a shed request, so it can leak no tokens.
		release, err := e.adm.acquire(ctx, "make_reservations", a.RequesterDomain, a.Request.Res.Tenant, a.Request.Res.Priority)
		if err != nil {
			return nil, err
		}
		defer release()
		return proto.FeedbackReply{Feedback: e.makeReservations(ctx, a.Request, a.RequesterDomain)}, nil
	}))
	e.Handle(proto.MethodEnactSchedule, orb.Typed(func(ctx context.Context, a proto.EnactScheduleArgs) (any, error) {
		// A shed here records no outcome, so a live retry can still
		// enact; if the caller never returns, the held reservations are
		// reclaimed by the hosts' confirmation timeouts and the
		// Enactor's requestTTL sweep.
		prio, domain, tenant := e.requestClass(a.RequestID)
		release, err := e.adm.acquire(ctx, "enact_schedule", domain, tenant, prio)
		if err != nil {
			return nil, err
		}
		defer release()
		return e.EnactSchedule(ctx, a.RequestID), nil
	}))
	e.Handle(proto.MethodCancelReservations, orb.Typed(func(ctx context.Context, a proto.CancelReservationsArgs) (any, error) {
		if err := e.CancelReservations(ctx, a.RequestID); err != nil {
			return nil, err
		}
		return proto.Ack{}, nil
	}))
	e.Handle(proto.MethodAccountDeposit, orb.Typed(func(ctx context.Context, a proto.AccountDepositArgs) (any, error) {
		led := e.cfg.Ledger
		if led == nil {
			return nil, errors.New("enactor: no economy ledger configured")
		}
		led.Open(a.Tenant, economy.Credits(a.Amount))
		return accountReply(led, a.Tenant), nil
	}))
	e.Handle(proto.MethodAccountStatus, orb.Typed(func(ctx context.Context, a proto.AccountArgs) (any, error) {
		led := e.cfg.Ledger
		if led == nil {
			return nil, errors.New("enactor: no economy ledger configured")
		}
		return accountReply(led, a.Tenant), nil
	}))
}

// accountReply snapshots one tenant account for the wire.
func accountReply(led *economy.Ledger, tenant string) proto.AccountReply {
	acct := led.Account(tenant)
	return proto.AccountReply{
		Tenant:    tenant,
		Budget:    int64(acct.Budget),
		Spent:     int64(acct.Spent),
		Refunded:  int64(acct.Refunded),
		Remaining: int64(acct.Remaining()),
	}
}
