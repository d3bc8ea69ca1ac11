// Package host implements Legion Host objects.
//
// The paper (§2.1): "Host Objects encapsulate machine capabilities (e.g.,
// a processor and its associated memory) and are responsible for
// instantiating objects on the processor. In this way, the Host acts as
// an arbiter for the machine's capabilities."
//
// A Host implements the Table 1 resource management interface —
// reservation management (make/check/cancel), object management
// (startObject/killObject/deactivateObject), and information reporting
// (get_compatible_vaults/vault_OK plus the attribute database) — and the
// RGE trigger calls the Monitor uses (§3.5).
//
// Two host flavours are provided, matching the paper:
//
//   - the Unix Host (Config.Queue == nil): objects start immediately; the
//     Host "maintains a reservation table in the Host Object, because the
//     Unix OS has no notion of reservations";
//   - the Batch Queue Host (Config.Queue != nil): object activations are
//     submitted to a simulated queue management system (package batchq,
//     standing in for LoadLeveler/Codine/Condor) and start when the queue
//     dispatches them; reservations are still kept in the Host, "in a
//     fashion similar to the Unix Host Object".
//
// Site autonomy: every request passes the Host's local placement policy
// before any resource is committed ("requests are made of resource
// guardians, who have final authority over what requests are honored").
package host

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"legion/internal/attr"
	"legion/internal/batchq"
	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/reservation"
	"legion/internal/rge"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// Errors returned by Host operations.
var (
	// ErrPolicy reports refusal by the Host's local placement policy.
	ErrPolicy = errors.New("host: refused by local placement policy")
	// ErrVaultUnreachable reports that the requested vault is not
	// compatible with or reachable from this host.
	ErrVaultUnreachable = errors.New("host: vault unreachable or incompatible")
	// ErrUnknownObject reports a kill/deactivate of an object this host
	// is not running.
	ErrUnknownObject = errors.New("host: object not running here")
)

// PolicyFunc is a Host's local placement policy: it may refuse a
// reservation request before resources are considered. Returning a non-nil
// error refuses the request; wrap or return ErrPolicy.
type PolicyFunc func(req proto.MakeReservationArgs) error

// RefuseDomains returns a policy that refuses requesters from the given
// administrative domains — the paper's example of exported autonomy
// information.
func RefuseDomains(domains ...string) PolicyFunc {
	set := make(map[string]bool, len(domains))
	for _, d := range domains {
		set[d] = true
	}
	return func(req proto.MakeReservationArgs) error {
		if set[req.Requester.Domain] {
			return fmt.Errorf("%w: domain %q refused", ErrPolicy, req.Requester.Domain)
		}
		return nil
	}
}

// shedMinPriority is the lowest priority a LoadShedPolicy lets through
// above its watermark: priority-0 best-effort requests are the ones shed.
const shedMinPriority = 1

// LoadShedPolicy returns a load-aware placement policy: once the host's
// reservation occupancy (live reservations / MaxShared) reaches
// watermark (0..1], requests below shedMinPriority are refused with a
// typed orb.ErrOverload shed. Higher-priority requests still get the
// remaining capacity — the Table 2 admission rules are the hard limit —
// so under saturation the host degrades by shedding its least important
// work first instead of failing everything at the cliff.
func (h *Host) LoadShedPolicy(watermark float64) PolicyFunc {
	return func(req proto.MakeReservationArgs) error {
		if req.Priority >= shedMinPriority {
			return nil
		}
		occ := float64(h.table.Active()) / float64(h.cfg.MaxShared)
		if occ >= watermark {
			return fmt.Errorf("%w: occupancy %.2f >= watermark %.2f, priority %d < %d",
				orb.ErrOverload, occ, watermark, req.Priority, shedMinPriority)
		}
		return nil
	}
}

// reservationTimeout is the confirmation timeout of an instantaneous
// reservation: a grant not confirmed within it is reclaimed.
const reservationTimeout = 30 * time.Second

// Config parameterizes a Host.
type Config struct {
	// Arch, OS, OSVersion describe the machine for implementation
	// matching ("architecture, OS, and load average" and beyond).
	Arch      string
	OS        string
	OSVersion string
	// CPUs is the processor count; it bounds default reservation
	// multiplexing and scales the load model.
	CPUs int
	// MemoryMB is the machine's memory, exported via attributes.
	MemoryMB int
	// Zone is the reachability zone used for vault compatibility.
	Zone string
	// CostPerCPU is the advertised charge per CPU-second, exported so
	// schedulers can weigh cost (§3.1's "amount charged per CPU cycle").
	CostPerCPU float64
	// Price is the economy layer's charge per instance-hour, exported as
	// $host_price and billed (price × reservation duration) against the
	// requesting tenant's ledger account at grant time (DESIGN.md §15).
	// Zero means the host is free.
	Price float64
	// Spot marks the host as spot capacity ($host_class =
	// "spot" instead of "reserved"), typically sold cheaper.
	Spot bool
	// Speed is the machine's relative benchmark speed (1.0 = baseline),
	// exported as $host_speed so deadline-aware schedulers can estimate
	// completion time, not just occupancy. Zero or negative exports 1.0.
	Speed float64
	// Vaults are the vault objects reachable from this host.
	Vaults []loid.LOID
	// Queue, when non-nil, makes this a Batch Queue Host.
	Queue *batchq.Queue
	// MaxShared bounds concurrently overlapping timesharing
	// reservations; zero defaults to 4x CPUs.
	MaxShared int
}

// runningObject tracks one active instance.
type runningObject struct {
	class   loid.LOID
	vault   loid.LOID
	version uint64
	job     batchq.JobID // batch hosts only
	queued  bool
	obj     GenericObject // registered with the runtime by its address
	// tok is the reservation the object was started under. For one-shot
	// (non-reusable) reservations the paper specifies "a typical
	// timesharing system that expires a reservation when the job is
	// done": when the last object under such a token terminates, the
	// host releases the reservation.
	tok reservation.Token
}

// Host is a Legion Host object. It is safe for concurrent use.
type Host struct {
	orb.ServiceObject
	rt    *orb.Runtime
	cfg   Config
	attrs *attr.Set
	table *reservation.Table
	trigs *rge.TriggerSet

	mu      sync.Mutex
	policy  PolicyFunc // live placement policy (SetPolicy may swap it)
	running map[loid.LOID]*runningObject
	extLoad float64
	pushTo  []pushTarget

	startsTotal  int64
	reassessions int64

	met hostMetrics
}

// hostMetrics holds the Host's telemetry handles, cached at New.
type hostMetrics struct {
	spans     *telemetry.SpanLog
	domain    string
	granted   *telemetry.Counter
	refused   *telemetry.Counter
	shed      *telemetry.Counter
	starts    *telemetry.Counter
	startTime *telemetry.Histogram
}

func newHostMetrics(rt *orb.Runtime) hostMetrics {
	reg := rt.Metrics()
	return hostMetrics{
		spans:     reg.Spans(),
		domain:    rt.Domain(),
		granted:   reg.Counter("legion_host_reservations_granted_total"),
		refused:   reg.Counter("legion_host_reservations_refused_total"),
		shed:      reg.Counter("legion_host_reservations_shed_total"),
		starts:    reg.Counter("legion_host_object_starts_total"),
		startTime: reg.Histogram("legion_host_start_object_seconds", telemetry.LatencyBuckets),
	}
}

// pushTarget is a Collection this host pushes state to on reassessment.
type pushTarget struct {
	collection loid.LOID
	credential string
}

// New creates a Host, registers its methods and itself with rt.
func New(rt *orb.Runtime, cfg Config) *Host {
	if cfg.CPUs < 1 {
		cfg.CPUs = 1
	}
	if cfg.MaxShared == 0 {
		if cfg.Queue != nil {
			// A Batch Queue Host can run only as many objects as the
			// queue has slots; admitting more reservations than that
			// would leave StartObject calls blocked behind full slots.
			cfg.MaxShared = cfg.Queue.Config().Slots
		} else {
			cfg.MaxShared = cfg.CPUs * 4
		}
	}
	if cfg.Zone == "" {
		cfg.Zone = rt.Domain()
	}
	h := &Host{
		rt:      rt,
		cfg:     cfg,
		running: make(map[loid.LOID]*runningObject),
	}
	h.InitShared(rt.Mint("Host"), hostMethods(), h)
	h.table = reservation.NewTable(h.LOID(), cfg.MaxShared, reservationTimeout, rt.Clock())
	h.met = newHostMetrics(rt)
	// All Hosts on one runtime share the aggregate occupancy gauge; the
	// table pushes deltas into it on every grant/cancel/expiry.
	h.table.SetGauge(rt.Metrics().Gauge("legion_reservations_active"))
	h.trigs = rge.NewTriggerSet(h.LOID(), rt.Clock())
	vaultStrs := make([]string, len(cfg.Vaults))
	for i, vl := range cfg.Vaults {
		vaultStrs[i] = vl.String()
	}
	h.attrs = attr.NewSet(
		attr.Pair{Name: "host_arch", Value: attr.String(cfg.Arch)},
		attr.Pair{Name: "host_os_name", Value: attr.String(cfg.OS)},
		attr.Pair{Name: "host_os_version", Value: attr.String(cfg.OSVersion)},
		attr.Pair{Name: "host_cpus", Value: attr.Int(int64(cfg.CPUs))},
		attr.Pair{Name: "host_speed", Value: attr.Float(speedOf(cfg))},
		attr.Pair{Name: "host_memory_mb", Value: attr.Int(int64(cfg.MemoryMB))},
		attr.Pair{Name: "host_mem_available_mb", Value: attr.Int(int64(cfg.MemoryMB))},
		attr.Pair{Name: "host_zone", Value: attr.String(cfg.Zone)},
		attr.Pair{Name: "host_domain", Value: attr.String(rt.Domain())},
		attr.Pair{Name: "host_cost_per_cpu", Value: attr.Float(cfg.CostPerCPU)},
		attr.Pair{Name: "host_price", Value: attr.Float(cfg.Price)},
		attr.Pair{Name: "host_class", Value: attr.String(hostClass(cfg.Spot))},
		attr.Pair{Name: "host_load", Value: attr.Float(0)},
		attr.Pair{Name: "host_running_objects", Value: attr.Int(0)},
		attr.Pair{Name: "host_queue_length", Value: attr.Int(0)},
		attr.Pair{Name: "host_is_batch", Value: attr.Bool(cfg.Queue != nil)},
		attr.Pair{Name: "host_loid", Value: attr.String(h.LOID().String())},
		attr.Pair{Name: "host_vaults", Value: attr.Strings(vaultStrs...)},
	)
	rt.Register(h)
	return h
}

// ClassSpot and ClassReserved are the $host_class attribute values.
const (
	ClassSpot     = "spot"
	ClassReserved = "reserved"
)

func hostClass(spot bool) string {
	if spot {
		return ClassSpot
	}
	return ClassReserved
}

func speedOf(cfg Config) float64 {
	if cfg.Speed <= 0 {
		return 1.0
	}
	return cfg.Speed
}

// Price returns the host's advertised per-instance-hour price.
func (h *Host) Price() float64 { return h.cfg.Price }

// ReservationCost prices a reservation of the given duration on this
// host: Price × hours, the amount the Enactor debits from the
// requesting tenant's account when the grant is confirmed.
func (h *Host) ReservationCost(d time.Duration) float64 {
	return h.cfg.Price * d.Hours()
}

// Zone returns the host's reachability zone.
func (h *Host) Zone() string { return h.cfg.Zone }

// SetPolicy replaces the host's local placement policy; a new host, or
// nil, accepts everything. It is read under the host's mutex.
func (h *Host) SetPolicy(p PolicyFunc) {
	h.mu.Lock()
	h.policy = p
	h.mu.Unlock()
}

// SetExternalLoad sets the synthetic background load (0..n), modelling
// non-Legion work on the machine; the sim package drives this.
func (h *Host) SetExternalLoad(l float64) {
	h.mu.Lock()
	h.extLoad = l
	h.mu.Unlock()
}

// Attributes returns a copy of the current attributes, the caller's to
// keep and write (the paper's information-reporting path for "an
// external agent to retrieve information describing the Host's state").
func (h *Host) Attributes() []attr.Pair { return slices.Clone(h.attrs.Snapshot()) }

// Triggers exposes the host's RGE trigger set.
func (h *Host) Triggers() *rge.TriggerSet { return h.trigs }

// RunningCount returns the number of active instances.
func (h *Host) RunningCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.running)
}

// RunningInstances returns the LOIDs of active instances.
func (h *Host) RunningInstances() []loid.LOID {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]loid.LOID, 0, len(h.running))
	for l := range h.running {
		out = append(out, l)
	}
	return out
}

// Load returns the host's current load figure: external (background)
// load plus Legion objects per CPU.
func (h *Host) Load() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.loadLocked()
}

func (h *Host) loadLocked() float64 {
	return h.extLoad + float64(len(h.running))/float64(h.cfg.CPUs)
}

// PushTo registers a Collection that Reassess pushes updated attributes
// to (the §3.1/§3.2 push model).
func (h *Host) PushTo(collection loid.LOID, credential string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pushTo = append(h.pushTo, pushTarget{collection, credential})
}

// ClearPushTargets removes all push registrations; the host then only
// reassesses locally (a pull-model world where the Data Collection
// Daemon moves the data).
func (h *Host) ClearPushTargets() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pushTo = nil
}

// Reassess recomputes the host's state attributes, evaluates RGE
// triggers, and pushes updates to registered Collections. "The Host
// Object reassesses its local state periodically, and repopulates its
// attributes" (§3.1).
func (h *Host) Reassess(ctx context.Context) {
	h.mu.Lock()
	load := h.loadLocked()
	runningN := len(h.running)
	memUsed := 0
	for range h.running {
		memUsed += 64 // nominal 64 MB per active object
	}
	avail := h.cfg.MemoryMB - memUsed
	if avail < 0 {
		avail = 0
	}
	qlen := 0
	if h.cfg.Queue != nil {
		qlen = h.cfg.Queue.QueueLength()
	}
	targets := append([]pushTarget(nil), h.pushTo...)
	h.reassessions++
	h.mu.Unlock()

	h.attrs.Merge([]attr.Pair{
		{Name: "host_load", Value: attr.Float(load)},
		{Name: "host_running_objects", Value: attr.Int(int64(runningN))},
		{Name: "host_mem_available_mb", Value: attr.Int(int64(avail))},
		{Name: "host_queue_length", Value: attr.Int(int64(qlen))},
	})

	h.trigs.Evaluate(h.attrs)

	// The Set's own version, not a copy: the Set never writes it again,
	// so a Collection that gets it in process keeps it as the record.
	snap := h.attrs.Snapshot()
	for _, t := range targets {
		// Push failures are tolerated: a Collection outage must not take
		// the Host down with it.
		_, _ = orb.Invoke[proto.Ack](ctx, h.rt, t.collection, proto.MethodUpdateCollectionEntry,
			proto.UpdateArgs{Member: h.LOID(), Attrs: snap, Credential: t.credential})
	}
}

// StartReassessing runs Reassess every interval, through vclock.Every,
// until the returned stop is called.
func (h *Host) StartReassessing(interval time.Duration) (stop func()) {
	return vclock.Every(h.rt.Clock(), interval, func() { h.Reassess(context.Background()) })
}

// ReapReservations reclaims expired and orphaned (granted but never
// confirmed) reservations now, returning how many were dropped. This is
// the failure-recovery half of the §3.1 reservation protocol: an Enactor
// that crashed — or whose connection died after the grant — leaves
// unconfirmed tokens behind, and reaping frees those slots for other
// clients without waiting for the next reservation request to trigger
// lazy expiry.
func (h *Host) ReapReservations() int { return h.table.Reap() }

// ActiveReservations returns the number of live (confirmed or awaiting
// confirmation) reservations — chaos tests assert this drains to zero
// after failed negotiations.
func (h *Host) ActiveReservations() int { return h.table.Active() }

// ReservationLeaks reaps the table and returns the number of live
// one-shot reservations not backing any running object. Migration only
// ever takes one-shot tokens, so after the system quiesces this counts
// exactly the tokens a failed migration forgot to cancel: an unconfirmed
// grant nobody redeemed, or a consumed token whose object is gone without
// the release path running. It must be zero after any migration episode.
func (h *Host) ReservationLeaks() int {
	h.table.Reap()
	h.mu.Lock()
	inUse := make(map[uint64]bool, len(h.running))
	for _, ro := range h.running {
		inUse[ro.tok.ID] = true
	}
	h.mu.Unlock()
	n := 0
	for _, e := range h.table.Snapshot() {
		if !e.Token.Type.Reuse && !inUse[e.Token.ID] {
			n++
		}
	}
	return n
}

// IsRunning reports whether the named instance is active on this host.
func (h *Host) IsRunning(instance loid.LOID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.running[instance]
	return ok
}

// StartReaper runs ReapReservations every interval, through
// vclock.Every, until the returned stop is called.
func (h *Host) StartReaper(interval time.Duration) (stop func()) {
	return vclock.Every(h.rt.Clock(), interval, func() { h.ReapReservations() })
}

// --- Reservation management (Table 1, column 1) ---

// MakeReservation grants a reservation after checking, per §3.1, "that
// the vault is reachable, that sufficient resources are available, and
// that its local placement policy permits instantiating the object".
func (h *Host) MakeReservation(ctx context.Context, req proto.MakeReservationArgs) (*reservation.Token, error) {
	// 1. Local placement policy (site autonomy comes first).
	h.mu.Lock()
	policy := h.policy
	h.mu.Unlock()
	if policy != nil {
		if err := policy(req); err != nil {
			h.met.refused.Inc()
			if errors.Is(err, orb.ErrOverload) {
				h.met.shed.Inc()
			}
			return nil, err
		}
	}
	// 2. Vault reachable and compatible.
	if err := h.vaultOK(ctx, req.Vault); err != nil {
		h.met.refused.Inc()
		return nil, err
	}
	// 3. Sufficient resources: the reservation table's admission rules.
	tok, err := h.table.Make(reservation.Request{
		Vault:    req.Vault,
		Type:     req.Type,
		Start:    req.Start,
		Duration: req.Duration,
		Timeout:  req.Timeout,
	})
	if err != nil {
		h.met.refused.Inc()
		return nil, err
	}
	h.met.granted.Inc()
	return tok, nil
}

// CheckReservation validates a token without consuming it.
func (h *Host) CheckReservation(tok *reservation.Token) error {
	return h.table.Check(tok)
}

// CancelReservation releases a reservation.
func (h *Host) CancelReservation(tok *reservation.Token) error {
	return h.table.Cancel(tok)
}

// vaultOK verifies the vault is in this host's reachable list and (if
// the vault answers) zone-compatible.
func (h *Host) vaultOK(ctx context.Context, v loid.LOID) error {
	found := false
	for _, known := range h.cfg.Vaults {
		if known == v {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: %v not in host's vault list", ErrVaultUnreachable, v)
	}
	// Identity + zone probe: the vault confirms it is the vault we think
	// it is and that a host in our zone can reach it.
	r, err := orb.Invoke[proto.BoolReply](ctx, h.rt, v, proto.MethodVaultOK, proto.VaultOKArgs{Vault: v, Zone: h.cfg.Zone})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrVaultUnreachable, err)
	}
	if !r.OK {
		return fmt.Errorf("%w: vault %v declines zone %q", ErrVaultUnreachable, v, h.cfg.Zone)
	}
	return nil
}

// CompatibleVaults returns the host's reachable vaults
// (get_compatible_vaults).
func (h *Host) CompatibleVaults() []loid.LOID {
	return append([]loid.LOID(nil), h.cfg.Vaults...)
}

// --- Object management (Table 1, column 2) ---

// StartObject redeems a reservation and activates the named instances.
// On a Unix Host activation is immediate; on a Batch Queue Host each
// instance is submitted as a job and this call blocks until dispatch (or
// ctx cancellation).
func (h *Host) StartObject(ctx context.Context, req proto.StartObjectArgs) (_ []loid.LOID, err error) {
	ctx, span := h.met.spans.Start(ctx, h.rt.Clock(), "host/startObject", h.met.domain)
	defer func() { h.met.startTime.Observe(span.Finish(err).Seconds()) }()
	if len(req.Instances) == 0 {
		return nil, errors.New("host: StartObject with no instances")
	}
	if req.State != nil && len(req.Instances) != 1 {
		return nil, errors.New("host: OPR reactivation requires exactly one instance")
	}
	// Redeem once per StartObject call: a one-shot token admits one call
	// (which may start several objects, per the multiprocessor note); a
	// reusable token admits many calls.
	if err := h.table.Redeem(&req.Token); err != nil {
		return nil, err
	}

	started := make([]loid.LOID, 0, len(req.Instances))
	for _, inst := range req.Instances {
		if err := h.activate(ctx, inst, req.Class, req.Token, req.State); err != nil {
			// Partial failure: report what started; callers treat the
			// error as authoritative and may kill the started subset.
			return started, fmt.Errorf("host: activating %v: %w", inst, err)
		}
		started = append(started, inst)
	}
	h.mu.Lock()
	h.startsTotal += int64(len(started))
	h.mu.Unlock()
	h.met.starts.Add(int64(len(started)))
	return started, nil
}

// activate builds and registers one instance, via the batch queue when
// configured.
func (h *Host) activate(ctx context.Context, inst, class loid.LOID, tok reservation.Token, state *opr.OPR) error {
	version := uint64(1)
	if state != nil {
		version = state.Version + 1
	}
	ro := &runningObject{class: class, vault: tok.Vault, version: version, tok: tok}
	obj := &ro.obj
	if err := obj.init(inst, state); err != nil {
		return err
	}

	if h.cfg.Queue == nil {
		h.rt.Register(obj)
		h.mu.Lock()
		h.running[inst] = ro
		h.mu.Unlock()
		return nil
	}

	dispatched := h.rt.Clock().NewGate()
	jobID := h.cfg.Queue.Submit(func(batchq.JobID) { dispatched.Signal() })
	ro.job = jobID
	ro.queued = true
	if err := dispatched.Wait(ctx); err != nil {
		_ = h.cfg.Queue.Cancel(jobID)
		return fmt.Errorf("host: batch dispatch: %w", err)
	}
	h.rt.Register(obj)
	h.mu.Lock()
	h.running[inst] = ro
	h.mu.Unlock()
	return nil
}

// KillObject destroys a running instance: it is unregistered from the
// runtime and its stored OPR (if any) is deleted from its vault.
func (h *Host) KillObject(ctx context.Context, object loid.LOID) error {
	h.mu.Lock()
	ro, ok := h.running[object]
	if ok {
		delete(h.running, object)
	}
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownObject, object)
	}
	h.releaseOneShot(ro)
	h.rt.Unregister(object)
	if h.cfg.Queue != nil {
		_ = h.cfg.Queue.Complete(ro.job)
	}
	// Destruction removes persistent state; ignore not-found.
	_, _ = orb.Invoke[proto.Ack](ctx, h.rt, ro.vault, proto.MethodDeleteOPR, proto.DeleteOPRArgs{Object: object})
	return nil
}

// DeactivateObject captures the instance's passive state as an OPR,
// stores it in the instance's vault, and removes the active object.
// Reactivation happens when a class (or the Enactor, on migration)
// presents the OPR to some host's StartObject.
func (h *Host) DeactivateObject(ctx context.Context, object loid.LOID) (*opr.OPR, loid.LOID, error) {
	h.mu.Lock()
	ro, ok := h.running[object]
	h.mu.Unlock()
	if !ok {
		return nil, loid.Nil, fmt.Errorf("%w: %v", ErrUnknownObject, object)
	}
	payload, err := ro.obj.SaveState()
	if err != nil {
		return nil, loid.Nil, fmt.Errorf("host: saving state of %v: %w", object, err)
	}
	o, err := opr.New(object, ro.version, h.rt.Clock().Now(), payload)
	if err != nil {
		return nil, loid.Nil, err
	}
	if _, err := orb.Invoke[proto.Ack](ctx, h.rt, ro.vault, proto.MethodStoreOPR, proto.StoreOPRArgs{OPR: o}); err != nil {
		return nil, loid.Nil, fmt.Errorf("host: storing OPR in vault %v: %w", ro.vault, err)
	}
	h.mu.Lock()
	delete(h.running, object)
	h.mu.Unlock()
	h.rt.Unregister(object)
	if h.cfg.Queue != nil {
		_ = h.cfg.Queue.Complete(ro.job)
	}
	h.releaseOneShot(ro)
	return o, ro.vault, nil
}

// releaseOneShot cancels a terminated object's one-shot reservation once
// no other running object holds it — §3.1's "expires a reservation when
// the job is done" semantics for (share=1, reuse=0) and the space-
// sharing one-shot analogue.
func (h *Host) releaseOneShot(ro *runningObject) {
	if ro.tok.Type.Reuse || ro.tok.ID == 0 {
		return
	}
	h.mu.Lock()
	inUse := false
	for _, other := range h.running {
		if other.tok.ID == ro.tok.ID {
			inUse = true
			break
		}
	}
	h.mu.Unlock()
	if !inUse {
		_ = h.table.Cancel(&ro.tok)
	}
}

// --- orb protocol wiring ---

// hostMethods builds (once) the class-wide dispatch table every Host
// shares. At 100k hosts the per-instance method map this replaces was
// the single largest Host allocation.
var (
	hostTableOnce sync.Once
	hostTable     *orb.DispatchTable
)

func hostMethods() *orb.DispatchTable {
	hostTableOnce.Do(func() { hostTable = buildHostMethods() })
	return hostTable
}

func buildHostMethods() *orb.DispatchTable {
	t := orb.NewDispatchTable()
	t.HandleTyped(proto.MethodMakeReservation, orb.SharedTyped(func(ctx context.Context, h *Host, a proto.MakeReservationArgs) (proto.MakeReservationReply, error) {
		tok, err := h.MakeReservation(ctx, a)
		if err != nil {
			return proto.MakeReservationReply{}, err
		}
		return proto.MakeReservationReply{Token: *tok, Cost: h.ReservationCost(tok.Duration)}, nil
	}))
	t.HandleTyped(proto.MethodCheckReservation, orb.SharedTyped(func(_ context.Context, h *Host, a proto.TokenArgs) (proto.BoolReply, error) {
		if err := h.CheckReservation(&a.Token); err != nil {
			return proto.BoolReply{OK: false}, nil
		}
		return proto.BoolReply{OK: true}, nil
	}))
	t.HandleTyped(proto.MethodCancelReservation, orb.SharedTyped(func(_ context.Context, h *Host, a proto.TokenArgs) (proto.Ack, error) {
		return proto.Ack{}, h.CancelReservation(&a.Token)
	}))
	t.HandleTyped(proto.MethodStartObject, orb.SharedTyped(func(ctx context.Context, h *Host, a proto.StartObjectArgs) (proto.StartObjectReply, error) {
		started, err := h.StartObject(ctx, a)
		if err != nil {
			return proto.StartObjectReply{}, err
		}
		return proto.StartObjectReply{Started: started}, nil
	}))
	t.HandleTyped(proto.MethodKillObject, orb.SharedTyped(func(ctx context.Context, h *Host, a proto.ObjectArgs) (proto.Ack, error) {
		return proto.Ack{}, h.KillObject(ctx, a.Object)
	}))
	t.HandleTyped(proto.MethodDeactivateObject, orb.SharedTyped(func(ctx context.Context, h *Host, a proto.ObjectArgs) (proto.DeactivateReply, error) {
		o, vaultL, err := h.DeactivateObject(ctx, a.Object)
		if err != nil {
			return proto.DeactivateReply{}, err
		}
		return proto.DeactivateReply{OPR: o, Vault: vaultL}, nil
	}))
	t.Handle(proto.MethodGetCompatibleVaults, func(_ context.Context, recv, _ any) (any, error) {
		return proto.CompatibleVaultsReply{Vaults: recv.(*Host).CompatibleVaults()}, nil
	})
	t.HandleTyped(proto.MethodVaultOK, orb.SharedTyped(func(ctx context.Context, h *Host, a proto.VaultOKArgs) (proto.BoolReply, error) {
		if err := h.vaultOK(ctx, a.Vault); err != nil {
			return proto.BoolReply{OK: false}, nil
		}
		return proto.BoolReply{OK: true}, nil
	}))
	t.Handle(proto.MethodGetAttributes, func(_ context.Context, recv, _ any) (any, error) {
		return proto.AttributesReply{Attrs: recv.(*Host).Attributes()}, nil
	})
	t.HandleTyped(proto.MethodDefineTrigger, orb.SharedTyped(func(_ context.Context, h *Host, a proto.DefineTriggerArgs) (proto.Ack, error) {
		return proto.Ack{}, h.trigs.Define(a.Name, a.Guard)
	}))
	t.HandleTyped(proto.MethodRegisterOutcall, orb.SharedTyped(func(_ context.Context, h *Host, a proto.RegisterOutcallArgs) (proto.Ack, error) {
		monitor := a.Monitor
		// Keyed by the registering Monitor: a re-watch (reconnect, retried
		// Watch) replaces the previous registration instead of stacking a
		// duplicate, so one trigger firing notifies each Monitor once.
		h.trigs.RegisterOutcallKeyed(a.Trigger, monitor.String(), func(ev rge.Event) {
			// The outcall is a method invocation on the Monitor; failures
			// are tolerated (the Monitor may be down).
			clk := h.rt.Clock()
			ctx := clk.WithDeadline(context.Background(), clk.Now().Add(10*time.Second))
			defer vclock.End(ctx)
			_, _ = orb.Invoke[proto.Ack](ctx, h.rt, monitor, proto.MethodNotify, proto.NotifyArgs{
				Source:  ev.Source,
				Trigger: ev.Trigger,
				Attrs:   ev.Attrs,
				Time:    ev.Time,
			})
		})
		return proto.Ack{}, nil
	}))
	return t
}
