// Package core assembles the Legion resource management infrastructure
// into a usable metasystem: the public API of this reproduction.
//
// A Metasystem owns one administrative domain's object runtime and the
// core object hierarchy of Figure 1 — LegionClass at the root, HostClass
// and VaultClass managing the resource objects — plus the RMI service
// objects of Figure 3: a Collection, an Enactor, and a Monitor. User
// classes are defined with DefineClass and placed with
// PlaceApplication, which drives any scheduler.Generator through the
// Figure 9 retry protocol.
//
// Migration (paper §2.1: "any active object can be migrated by shutting
// it down, moving the passive state to a new Vault if necessary, and
// activating the object on another host") is provided by Migrate, and the
// §3.5 monitoring loop by WatchLoad + OnOverload.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"legion/internal/classobj"
	"legion/internal/collection"
	"legion/internal/collection/daemon"
	"legion/internal/economy"
	"legion/internal/enactor"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/monitor"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/reservation"
	"legion/internal/resilient"
	"legion/internal/scheduler"
	"legion/internal/telemetry"
	"legion/internal/vault"
	"legion/internal/vclock"
)

// Options tunes Metasystem construction.
type Options struct {
	// Seed drives all randomized scheduling; fixed default 1 for
	// reproducibility.
	Seed int64
	// CollectionAuth authorizes Collection mutations; nil allows all.
	CollectionAuth collection.Authorizer
	// Credential is presented by hosts pushing state to the Collection.
	Credential string
	// Retry shapes transport-fault handling for placement-path calls
	// (scheduler queries, Enactor negotiation). The zero value uses
	// resilient defaults.
	Retry resilient.Policy
	// Breaker tunes the shared per-endpoint circuit breakers. The zero
	// value uses resilient defaults.
	Breaker resilient.BreakerConfig
	// Metrics, when non-nil, replaces the process-wide telemetry.Default
	// registry for this metasystem's runtime and services — tests use a
	// private registry to assert exact counts, and overhead benchmarks
	// pass telemetry.NewDisabled().
	Metrics *telemetry.Registry
	// Parallelism bounds how many per-resource negotiation calls the
	// Enactor (and the Data Collection Daemon's probes) issue
	// concurrently. Zero means the enactor default (8); 1 is the serial
	// host-by-host walk.
	Parallelism int
	// CollectionShards > 1 partitions the resource directory (paper §4:
	// Collections "organized so that each covers a subset of the
	// metasystem's resources"): the Metasystem builds that many
	// Collection shards fronted by a collection.Router, and every
	// consumer — schedulers, the quick placer, host push updates, the
	// Data Collection Daemon — addresses the Router's LOID instead of a
	// single Collection. Members route to shards by a hash of their
	// LOID. 0 or 1 keeps the classic single Collection and
	// ms.Collection semantics.
	CollectionShards int
	// MaxInFlight bounds concurrently executing Enactor placements
	// admitted at the wire boundary; requests beyond it wait in a
	// priority queue and are shed with proto.ErrOverload when the queue
	// is full or their deadline cannot be met. Zero disables admission
	// control (every request dispatches immediately).
	MaxInFlight int
	// AdmissionQueue bounds the Enactor's admission wait queue; zero
	// means 4×MaxInFlight.
	AdmissionQueue int
	// ShedWatermark, when > 0, installs a load-aware policy on every
	// host added through AddHost: at or above this occupancy fraction
	// (active reservations / MaxShared) the host refuses reservations
	// below ShedMinPriority with proto.ErrOverload, keeping headroom
	// for important work during overload.
	ShedWatermark float64
	// ShedMinPriority is the lowest priority that still rides through
	// above the watermark; zero means 1 (so priority-0 best-effort
	// requests are the ones shed).
	ShedMinPriority int
	// Clock is the metasystem's time source; nil means the wall clock.
	// A virtual clock here propagates to every service built on this
	// runtime — retries, admission, daemons, reapers — which is what
	// the discrete-event simulation mode runs on (DESIGN.md §13).
	Clock vclock.Clock
	// Economy enables the computational-economy ledger (DESIGN.md §15):
	// the Enactor charges each granted reservation to its request's
	// tenant at the host-quoted price and refunds on every cancel path.
	// False leaves placement free, matching the pre-economy behaviour.
	Economy bool
	// Ledger, when non-nil, is an externally built ledger to use instead
	// of the one Economy constructs (tests share one across domains).
	// Implies Economy.
	Ledger *economy.Ledger
}

// Metasystem is one administrative domain's assembled Legion RMI.
type Metasystem struct {
	rt   *orb.Runtime
	opts Options

	// Core object hierarchy (Figure 1).
	LegionClass *classobj.Class
	HostClass   *classobj.Class
	VaultClass  *classobj.Class

	// RMI service objects (Figure 3). When Options.CollectionShards > 1
	// the directory is federated: Collection is nil, Shards holds the
	// per-shard Collections, and Router is the MetaCollection every
	// consumer addresses (CollectionLOID abstracts over both layouts).
	Collection *collection.Collection
	Shards     []*collection.Collection
	Router     *collection.Router
	Enactor    *enactor.Enactor
	Monitor    *monitor.Monitor

	// breakers is the domain-wide circuit-breaker pool: the Wrapper,
	// scheduler queries, Enactor episodes, and daemon probes share
	// per-endpoint state so a Host that fails one layer fails fast in
	// the others.
	breakers *resilient.BreakerSet

	mu      sync.Mutex
	hosts   []*host.Host
	vaults  []*vault.Vault
	classes map[string]*classobj.Class
	rng     *rand.Rand

	// migMu guards migLocks, the per-instance migration locks: Migrate
	// and EnsureRunning serialize per instance, so two concurrent
	// rebalancing decisions can never interleave ForgetInstance /
	// AdoptInstance (or deactivate an object twice). Entries are
	// refcounted and removed when the last waiter releases.
	migMu    sync.Mutex
	migLocks map[loid.LOID]*instanceLock
}

// instanceLock is one refcounted per-instance migration mutex.
type instanceLock struct {
	mu   sync.Mutex
	refs int
}

// lockInstance acquires the migration lock for an instance, returning
// the release function.
func (ms *Metasystem) lockInstance(instance loid.LOID) (unlock func()) {
	ms.migMu.Lock()
	if ms.migLocks == nil {
		ms.migLocks = make(map[loid.LOID]*instanceLock)
	}
	l := ms.migLocks[instance]
	if l == nil {
		l = &instanceLock{}
		ms.migLocks[instance] = l
	}
	l.refs++
	ms.migMu.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		ms.migMu.Lock()
		l.refs--
		if l.refs == 0 {
			delete(ms.migLocks, instance)
		}
		ms.migMu.Unlock()
	}
}

// MigrationInFlight reports whether a Migrate/EnsureRunning currently
// holds (or is queued on) the instance's migration lock — rebalancing
// policies use it to skip instances already being moved.
func (ms *Metasystem) MigrationInFlight(instance loid.LOID) bool {
	ms.migMu.Lock()
	defer ms.migMu.Unlock()
	return ms.migLocks[instance] != nil
}

// New builds a Metasystem for the given administrative domain.
func New(domain string, opts Options) *Metasystem {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	rt := orb.NewRuntime(domain)
	if opts.Metrics != nil {
		// Before any service construction: services cache metric handles
		// from rt.Metrics() in their constructors.
		rt.SetMetrics(opts.Metrics)
	}
	if opts.Clock != nil {
		// Likewise before construction: services capture the runtime
		// clock when they are built.
		rt.SetClock(opts.Clock)
	}
	if opts.Retry.Clock == nil {
		opts.Retry.Clock = rt.Clock()
	}
	ms := &Metasystem{
		rt:       rt,
		opts:     opts,
		breakers: resilient.NewBreakerSet(opts.Breaker),
		classes:  make(map[string]*classobj.Class),
		rng:      rand.New(rand.NewSource(opts.Seed)),
	}
	ms.breakers.SetClock(rt.Clock().Now)
	// Count breaker state transitions for the whole domain pool: trips
	// (→open), recoveries (→closed), and probe admissions (→half-open).
	reg := rt.Metrics()
	toOpen := reg.Counter("legion_breaker_transitions_total", "to", "open")
	toClosed := reg.Counter("legion_breaker_transitions_total", "to", "closed")
	toHalf := reg.Counter("legion_breaker_transitions_total", "to", "half-open")
	ms.breakers.OnStateChange(func(_, to resilient.State) {
		switch to {
		case resilient.Open:
			toOpen.Inc()
		case resilient.Closed:
			toClosed.Inc()
		case resilient.HalfOpen:
			toHalf.Inc()
		}
	})
	ms.LegionClass = classobj.New(rt, classobj.Config{Name: "Legion"})
	ms.HostClass = classobj.New(rt, classobj.Config{Name: "Host", Meta: ms.LegionClass.LOID()})
	ms.VaultClass = classobj.New(rt, classobj.Config{Name: "Vault", Meta: ms.LegionClass.LOID()})
	if opts.CollectionShards > 1 {
		shardLOIDs := make([]loid.LOID, opts.CollectionShards)
		for i := range shardLOIDs {
			shard := collection.New(rt, opts.CollectionAuth)
			ms.Shards = append(ms.Shards, shard)
			shardLOIDs[i] = shard.LOID()
		}
		ms.Router = collection.NewRouter(rt, collection.RouterConfig{
			Shards:      shardLOIDs,
			Parallelism: opts.Parallelism,
			Retry:       opts.Retry,
			Breakers:    ms.breakers,
		})
	} else {
		ms.Collection = collection.New(rt, opts.CollectionAuth)
	}
	ledger := opts.Ledger
	if ledger == nil && opts.Economy {
		ledger = economy.NewLedger(rt.Metrics())
	}
	ms.Enactor = enactor.New(rt, enactor.Config{
		Retry:          opts.Retry,
		Breakers:       ms.breakers,
		Parallelism:    opts.Parallelism,
		MaxInFlight:    opts.MaxInFlight,
		AdmissionQueue: opts.AdmissionQueue,
		Ledger:         ledger,
	})
	ms.Monitor = monitor.New(rt)
	return ms
}

// Breakers exposes the domain-wide circuit-breaker pool (for inspection
// in tests and operational tooling).
func (ms *Metasystem) Breakers() *resilient.BreakerSet { return ms.breakers }

// Ledger exposes the domain's economy ledger (nil when Options.Economy
// is off) — experiments and tests audit conservation through it.
func (ms *Metasystem) Ledger() *economy.Ledger { return ms.Enactor.Ledger() }

// CollectionLOID is the directory address consumers should query: the
// Router when the directory is sharded, the single Collection otherwise.
func (ms *Metasystem) CollectionLOID() loid.LOID {
	if ms.Router != nil {
		return ms.Router.LOID()
	}
	return ms.Collection.LOID()
}

// Runtime exposes the underlying object runtime.
func (ms *Metasystem) Runtime() *orb.Runtime { return ms.rt }

// Domain returns the metasystem's administrative domain.
func (ms *Metasystem) Domain() string { return ms.rt.Domain() }

// Close shuts down network listeners and client connections.
func (ms *Metasystem) Close() error { return ms.rt.Close() }

// AddVault creates a Vault, adopts it into VaultClass, and returns it.
func (ms *Metasystem) AddVault(cfg vault.Config) *vault.Vault {
	v := vault.New(ms.rt, cfg)
	ms.VaultClass.AdoptInstance(v.LOID(), loid.Nil, loid.Nil)
	ms.mu.Lock()
	ms.vaults = append(ms.vaults, v)
	ms.mu.Unlock()
	return v
}

// AddHost creates a Host, adopts it into HostClass, joins it to the
// Collection with its current attributes, and wires its push updates.
func (ms *Metasystem) AddHost(cfg host.Config) *host.Host {
	h := host.New(ms.rt, cfg)
	if ms.opts.ShedWatermark > 0 {
		// Layer the load shed behind any autonomy policy the caller
		// supplied: local refusals (the site's own rules) win, then the
		// occupancy watermark sheds what is left.
		minPrio := ms.opts.ShedMinPriority
		if minPrio == 0 {
			minPrio = 1
		}
		h.SetPolicy(host.ChainPolicies(cfg.Policy, h.LoadShedPolicy(ms.opts.ShedWatermark, minPrio)))
	}
	ms.HostClass.AdoptInstance(h.LOID(), loid.Nil, loid.Nil)
	// Hosts push to (and join) the Router when sharded — it forwards to
	// the owning shard, so the host never learns the partitioning.
	h.PushTo(ms.CollectionLOID(), ms.opts.Credential)
	// Step 1 of Figure 3: populate the Collection.
	if ms.Router != nil {
		_ = ms.Router.Join(context.Background(), h.LOID(), h.Attributes(), ms.opts.Credential)
	} else {
		_ = ms.Collection.Join(h.LOID(), h.Attributes(), ms.opts.Credential)
	}
	ms.mu.Lock()
	ms.hosts = append(ms.hosts, h)
	ms.mu.Unlock()
	return h
}

// Hosts returns the metasystem's hosts.
func (ms *Metasystem) Hosts() []*host.Host {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return append([]*host.Host(nil), ms.hosts...)
}

// Vaults returns the metasystem's vaults.
func (ms *Metasystem) Vaults() []*vault.Vault {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return append([]*vault.Vault(nil), ms.vaults...)
}

// NewDaemon builds a Data Collection Daemon over this metasystem: it
// watches every current host, pushes into the domain Collection, and
// doubles as the failure detector — unreachable hosts get their
// Collection records flagged down, which schedulers skip. The caller
// drives sweeps (Sweep for one pass, Start for periodic).
func (ms *Metasystem) NewDaemon() *daemon.Daemon {
	return ms.NewDaemonConfig(daemon.Config{})
}

// NewDaemonConfig is NewDaemon with explicit daemon configuration: zero
// fields inherit the metasystem defaults. Callers use it to set the
// pull interval or the rolling host_load_history window
// (daemon.Config.HistoryLen — the series predictive rebalancing
// forecasts from) without re-wiring the watch/push targets by hand.
func (ms *Metasystem) NewDaemonConfig(cfg daemon.Config) *daemon.Daemon {
	if cfg.Credential == "" {
		cfg.Credential = ms.opts.Credential
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = ms.opts.Retry
	}
	if cfg.Breakers == nil {
		cfg.Breakers = ms.breakers
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = ms.opts.Parallelism
	}
	d := daemon.New(ms.rt, cfg)
	for _, h := range ms.Hosts() {
		d.Watch(h.LOID())
	}
	d.PushInto(ms.CollectionLOID())
	return d
}

// ReassessAll has every host recompute and push its state — one tick of
// the periodic reassessment the paper describes.
func (ms *Metasystem) ReassessAll(ctx context.Context) {
	for _, h := range ms.Hosts() {
		h.Reassess(ctx)
	}
}

// DefineClass creates a user object class managed by LegionClass, with a
// quick placer that makes the paper's "quick and almost certainly
// non-optimal" decision: the first matching host in the Collection.
func (ms *Metasystem) DefineClass(name string, impls []proto.Implementation) *classobj.Class {
	c := classobj.New(ms.rt, classobj.Config{
		Name:  name,
		Meta:  ms.LegionClass.LOID(),
		Impls: impls,
	})
	c.SetPlacer(ms.quickPlacer())
	ms.mu.Lock()
	ms.classes[name] = c
	ms.mu.Unlock()
	return c
}

// Class returns a previously defined class by name.
func (ms *Metasystem) Class(name string) (*classobj.Class, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	c, ok := ms.classes[name]
	return c, ok
}

// quickPlacer builds the default per-class placement: first matching
// host, first compatible vault, instantaneous reusable timesharing
// reservation.
func (ms *Metasystem) quickPlacer() classobj.QuickPlacer {
	return func(ctx context.Context, c *classobj.Class, count int) (proto.Placement, error) {
		hosts, err := scheduler.QueryHosts(ctx, ms.Env(), "defined($host_arch)")
		if err != nil {
			return proto.Placement{}, err
		}
		for _, h := range hosts {
			if len(h.Vaults) == 0 || h.Down {
				continue
			}
			res, err := ms.rt.Call(ctx, h.LOID, proto.MethodMakeReservation, proto.MakeReservationArgs{
				Requester: c.LOID(),
				Vault:     h.Vaults[0],
				Type:      reservation.ReusableTimesharing,
				Duration:  time.Hour,
			})
			if err != nil {
				continue // autonomy: the host said no; try the next
			}
			return proto.Placement{
				Host:  h.LOID,
				Vault: h.Vaults[0],
				Token: res.(proto.MakeReservationReply).Token,
			}, nil
		}
		return proto.Placement{}, errors.New("core: no host granted a reservation")
	}
}

// Env returns a scheduler environment over this metasystem.
func (ms *Metasystem) Env() *scheduler.Env {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return &scheduler.Env{
		RT:         ms.rt,
		Collection: ms.CollectionLOID(),
		Rand:       rand.New(rand.NewSource(ms.rng.Int63())),
		Retry:      ms.opts.Retry,
		Breakers:   ms.breakers,
	}
}

// PlaceApplication runs the full Figure 3 pipeline: the generator
// queries the Collection and computes schedules, the Wrapper negotiates
// them through the Enactor, and on success the named class instances are
// running on their reserved hosts.
func (ms *Metasystem) PlaceApplication(ctx context.Context, gen scheduler.Generator, req scheduler.Request) (scheduler.Outcome, error) {
	return ms.PlaceApplicationLimits(ctx, gen, req, scheduler.Wrapper{})
}

// PlaceApplicationLimits is PlaceApplication with explicit retry limits.
func (ms *Metasystem) PlaceApplicationLimits(ctx context.Context, gen scheduler.Generator, req scheduler.Request, w scheduler.Wrapper) (scheduler.Outcome, error) {
	return w.Run(ctx, ms.Env(), ms.Enactor.LOID(), gen, req)
}

// Migrate moves a running instance to another (host, vault): shutdown on
// the current host (OPR to its vault), move the OPR to the new vault if
// different, reactivate on the destination under a fresh reservation, and
// update the class's records.
//
// Migrate holds the instance's migration lock for its whole duration, so
// concurrent Migrate/EnsureRunning calls on the same instance serialize
// instead of double-deactivating or interleaving the class-record swap.
// Every failure branch cancels the destination reservation and removes
// any OPR copy the attempt left in the destination vault (restoring the
// source vault's copy first, so the passive state is never held only in
// memory); see DESIGN.md §11 for the full failure matrix.
func (ms *Metasystem) Migrate(ctx context.Context, class *classobj.Class, instance, toHost, toVault loid.LOID) error {
	unlock := ms.lockInstance(instance)
	defer unlock()

	fromHost, fromVault, err := class.WhereIs(instance)
	if err != nil {
		return err
	}
	if fromHost == toHost && fromVault == toVault {
		return nil // already there
	}

	// Reserve the destination before disturbing the running object, so a
	// refusal leaves the system untouched.
	res, err := ms.rt.Call(ctx, toHost, proto.MethodMakeReservation, proto.MakeReservationArgs{
		Requester: ms.Monitor.LOID(),
		Vault:     toVault,
		Type:      reservation.OneShotTimesharing,
		Duration:  time.Hour,
	})
	if err != nil {
		return fmt.Errorf("core: migrate %v: destination reservation: %w", instance, err)
	}
	tok := res.(proto.MakeReservationReply).Token
	cancelTok := func() {
		cctx, cancel := ms.rt.Clock().WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		_, _ = ms.rt.Call(cctx, toHost, proto.MethodCancelReservation, proto.TokenArgs{Token: tok})
	}

	// Shut down: the host stores the OPR in the instance's current vault
	// and returns it.
	dres, err := ms.rt.Call(ctx, fromHost, proto.MethodDeactivateObject, proto.ObjectArgs{Object: instance})
	if err != nil {
		// Roll the reservation back; the object is still running.
		cancelTok()
		return fmt.Errorf("core: migrate %v: deactivate on %v: %w", instance, fromHost, err)
	}
	state := dres.(proto.DeactivateReply).OPR

	// Move the passive state to the new vault if necessary.
	moved := false
	if toVault != fromVault {
		if _, err := ms.rt.Call(ctx, toVault, proto.MethodStoreOPR, proto.StoreOPRArgs{OPR: state}); err != nil {
			cancelTok()
			return ms.reactivateInPlace(ctx, class, instance, fromHost, fromVault, state,
				fmt.Errorf("core: migrate %v: store OPR in %v: %w", instance, toVault, err))
		}
		moved = true
		_, _ = ms.rt.Call(ctx, fromVault, proto.MethodDeleteOPR, proto.DeleteOPRArgs{Object: instance})
	}

	// Reactivate on the destination.
	if _, err := ms.rt.Call(ctx, toHost, proto.MethodStartObject, proto.StartObjectArgs{
		Token:     tok,
		Class:     class.LOID(),
		Instances: []loid.LOID{instance},
		State:     state,
	}); err != nil {
		cause := fmt.Errorf("core: migrate %v: reactivate on %v: %w", instance, toHost, err)
		// The token was granted and possibly consumed by the failed
		// redeem attempt; cancel releases it either way.
		cancelTok()
		if moved {
			// The copy now sits in toVault while the object returns to
			// fromVault. Restore the source copy first, and only drop the
			// destination copy once the state is durable at the source
			// again — the passive state must never exist solely in this
			// call frame.
			if _, rerr := ms.rt.Call(ctx, fromVault, proto.MethodStoreOPR, proto.StoreOPRArgs{OPR: state}); rerr == nil {
				_, _ = ms.rt.Call(ctx, toVault, proto.MethodDeleteOPR, proto.DeleteOPRArgs{Object: instance})
			}
		}
		return ms.reactivateInPlace(ctx, class, instance, fromHost, fromVault, state, cause)
	}
	class.ForgetInstance(instance)
	class.AdoptInstance(instance, toHost, toVault)
	return nil
}

// reactivateInPlace is the migration failure path: put the object back
// where it was so a failed migration degrades to a no-op. The recovery
// reservation is cancelled if its redeem fails, so even a doubly-failed
// migration leaks no token.
func (ms *Metasystem) reactivateInPlace(ctx context.Context, class *classobj.Class, instance, fromHost, fromVault loid.LOID, state *opr.OPR, cause error) error {
	res, err := ms.rt.Call(ctx, fromHost, proto.MethodMakeReservation, proto.MakeReservationArgs{
		Requester: ms.Monitor.LOID(),
		Vault:     fromVault,
		Type:      reservation.OneShotTimesharing,
		Duration:  time.Hour,
	})
	if err != nil {
		return fmt.Errorf("%w (and recovery reservation failed: %v)", cause, err)
	}
	rtok := res.(proto.MakeReservationReply).Token
	if _, err := ms.rt.Call(ctx, fromHost, proto.MethodStartObject, proto.StartObjectArgs{
		Token:     rtok,
		Class:     class.LOID(),
		Instances: []loid.LOID{instance},
		State:     state,
	}); err != nil {
		cctx, cancel := ms.rt.Clock().WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		_, _ = ms.rt.Call(cctx, fromHost, proto.MethodCancelReservation, proto.TokenArgs{Token: rtok})
		return fmt.Errorf("%w (and recovery reactivation failed: %v)", cause, err)
	}
	return cause
}

// HostByLOID returns the metasystem's Host object with the given LOID,
// or nil.
func (ms *Metasystem) HostByLOID(l loid.LOID) *host.Host {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for _, h := range ms.hosts {
		if h.LOID() == l {
			return h
		}
	}
	return nil
}

// VaultByLOID returns the metasystem's Vault object with the given LOID,
// or nil.
func (ms *Metasystem) VaultByLOID(l loid.LOID) *vault.Vault {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for _, v := range ms.vaults {
		if v.LOID() == l {
			return v
		}
	}
	return nil
}

// EnsureRunning verifies the instance is active where its class records
// say, and if it is not — a migration died after deactivation, or its
// host crashed and was replaced — reactivates it from the newest stored
// OPR, preferring the recorded host and falling back to any host that
// can reach the OPR's vault. It also deletes stray OPR copies other
// vaults hold once the object is running again. This is the anti-entropy
// half of migration fault tolerance: the rebalance subsystem calls it
// after failed migrations and from its reconcile sweep.
func (ms *Metasystem) EnsureRunning(ctx context.Context, class *classobj.Class, instance loid.LOID) error {
	unlock := ms.lockInstance(instance)
	defer unlock()

	hostL, vaultL, err := class.WhereIs(instance)
	if err != nil {
		return err
	}
	if h := ms.HostByLOID(hostL); h != nil && h.IsRunning(instance) {
		ms.cleanStrayOPRs(ctx, instance, vaultL)
		return nil
	}

	// Find the newest surviving OPR, preferring the recorded vault.
	type copyAt struct {
		vault loid.LOID
		state *opr.OPR
	}
	var copies []copyAt
	for _, v := range ms.Vaults() {
		res, err := ms.rt.Call(ctx, v.LOID(), proto.MethodRetrieveOPR, proto.RetrieveOPRArgs{Object: instance})
		if err != nil {
			continue // not here, or vault unreachable — keep looking
		}
		copies = append(copies, copyAt{vault: v.LOID(), state: res.(proto.RetrieveOPRReply).OPR})
	}
	if len(copies) == 0 {
		return fmt.Errorf("core: ensure-running %v: not active and no OPR found in any vault", instance)
	}
	best := copies[0]
	for _, c := range copies[1:] {
		if c.state.Version > best.state.Version ||
			(c.state.Version == best.state.Version && c.vault == vaultL) {
			best = c
		}
	}

	// Candidate hosts: the recorded one first, then anyone reaching the
	// OPR's vault.
	candidates := []loid.LOID{hostL}
	for _, h := range ms.Hosts() {
		if h.LOID() == hostL {
			continue
		}
		for _, v := range h.CompatibleVaults() {
			if v == best.vault {
				candidates = append(candidates, h.LOID())
				break
			}
		}
	}
	var lastErr error
	for _, cand := range candidates {
		res, err := ms.rt.Call(ctx, cand, proto.MethodMakeReservation, proto.MakeReservationArgs{
			Requester: ms.Monitor.LOID(),
			Vault:     best.vault,
			Type:      reservation.OneShotTimesharing,
			Duration:  time.Hour,
		})
		if err != nil {
			lastErr = err
			continue
		}
		tok := res.(proto.MakeReservationReply).Token
		if _, err := ms.rt.Call(ctx, cand, proto.MethodStartObject, proto.StartObjectArgs{
			Token:     tok,
			Class:     class.LOID(),
			Instances: []loid.LOID{instance},
			State:     best.state,
		}); err != nil {
			lastErr = err
			cctx, cancel := ms.rt.Clock().WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
			_, _ = ms.rt.Call(cctx, cand, proto.MethodCancelReservation, proto.TokenArgs{Token: tok})
			cancel()
			continue
		}
		class.ForgetInstance(instance)
		class.AdoptInstance(instance, cand, best.vault)
		ms.cleanStrayOPRs(ctx, instance, best.vault)
		return nil
	}
	return fmt.Errorf("core: ensure-running %v: no candidate host could reactivate: %w", instance, lastErr)
}

// cleanStrayOPRs best-effort deletes OPR copies for the instance from
// every vault except keep — the duplicates a fault-interrupted
// cross-vault move can leave behind.
func (ms *Metasystem) cleanStrayOPRs(ctx context.Context, instance, keep loid.LOID) {
	for _, v := range ms.Vaults() {
		if v.LOID() == keep {
			continue
		}
		has := false
		for _, o := range v.Objects() {
			if o == instance {
				has = true
				break
			}
		}
		if has {
			_, _ = ms.rt.Call(ctx, v.LOID(), proto.MethodDeleteOPR, proto.DeleteOPRArgs{Object: instance})
		}
	}
}

// MigrationAudit is the token/OPR conservation report AuditMigrations
// computes: after any migration episode quiesces, a healthy metasystem
// reports Clean() == true.
type MigrationAudit struct {
	// Missing lists instances running on no host.
	Missing []loid.LOID
	// Duplicated lists instances running on more than one host at once.
	Duplicated []loid.LOID
	// Misplaced lists instances running somewhere other than where their
	// class records say.
	Misplaced []loid.LOID
	// OrphanOPRs lists instances with an OPR copy in a vault other than
	// their current (class-recorded) vault.
	OrphanOPRs []loid.LOID
	// LeakedTokens counts live one-shot reservations backing no running
	// object, summed across hosts.
	LeakedTokens int
}

// Clean reports whether every conservation invariant held.
func (a MigrationAudit) Clean() bool {
	return len(a.Missing) == 0 && len(a.Duplicated) == 0 &&
		len(a.Misplaced) == 0 && len(a.OrphanOPRs) == 0 && a.LeakedTokens == 0
}

// String summarizes the violations.
func (a MigrationAudit) String() string {
	return fmt.Sprintf("missing=%v duplicated=%v misplaced=%v orphanOPRs=%v leakedTokens=%d",
		a.Missing, a.Duplicated, a.Misplaced, a.OrphanOPRs, a.LeakedTokens)
}

// AuditMigrations checks token/OPR conservation for every instance of
// the given classes: each must run on exactly one host (the one its
// class records), no vault other than its current one may hold its OPR,
// and no host may hold a live one-shot reservation that backs nothing.
func (ms *Metasystem) AuditMigrations(classes ...*classobj.Class) MigrationAudit {
	var a MigrationAudit
	hosts := ms.Hosts()
	vaults := ms.Vaults()
	for _, c := range classes {
		for _, inst := range c.Instances() {
			recHost, recVault, err := c.WhereIs(inst)
			if err != nil {
				continue
			}
			runningOn := 0
			placedRight := false
			for _, h := range hosts {
				if h.IsRunning(inst) {
					runningOn++
					if h.LOID() == recHost {
						placedRight = true
					}
				}
			}
			switch {
			case runningOn == 0:
				a.Missing = append(a.Missing, inst)
			case runningOn > 1:
				a.Duplicated = append(a.Duplicated, inst)
			case !placedRight:
				a.Misplaced = append(a.Misplaced, inst)
			}
			for _, v := range vaults {
				if v.LOID() == recVault {
					continue
				}
				for _, o := range v.Objects() {
					if o == inst {
						a.OrphanOPRs = append(a.OrphanOPRs, inst)
					}
				}
			}
		}
	}
	for _, h := range hosts {
		a.LeakedTokens += h.ReservationLeaks()
	}
	return a
}

// WatchLoad installs an overload trigger on every current host and
// registers the Monitor for its outcalls.
func (ms *Metasystem) WatchLoad(ctx context.Context, threshold float64) error {
	guard := fmt.Sprintf("$host_load > %g", threshold)
	for _, h := range ms.Hosts() {
		if err := ms.Monitor.Watch(ctx, h.LOID(), "overload", guard); err != nil {
			return err
		}
	}
	return nil
}

// ServeDirectory registers the bootstrap directory object at the
// domain's well-known LOID, letting remote runtimes (cmd/legion-run)
// discover this node's service objects after binding only the domain's
// TCP address.
func (ms *Metasystem) ServeDirectory() {
	dir := orb.NewServiceObject(proto.DirectoryLOID(ms.Domain()))
	dir.Handle(proto.MethodLookupServices, func(_ context.Context, _ any) (any, error) {
		ms.mu.Lock()
		defer ms.mu.Unlock()
		reply := proto.ServicesReply{
			Collection: ms.CollectionLOID(),
			Enactor:    ms.Enactor.LOID(),
			Monitor:    ms.Monitor.LOID(),
			Classes:    make(map[string]loid.LOID, len(ms.classes)),
		}
		for name, c := range ms.classes {
			reply.Classes[name] = c.LOID()
		}
		for _, h := range ms.hosts {
			reply.Hosts = append(reply.Hosts, h.LOID())
		}
		for _, v := range ms.vaults {
			reply.Vaults = append(reply.Vaults, v.LOID())
		}
		return reply, nil
	})
	ms.rt.Register(dir)
}

// ListenAndServe starts serving this metasystem's objects over TCP and
// registers the bootstrap directory. It returns the bound address.
func (ms *Metasystem) ListenAndServe(addr string) (string, error) {
	ms.ServeDirectory()
	return ms.rt.ListenAndServe(addr)
}

// LeastLoadedHost returns the host with the lowest current load and its
// first vault, excluding the given host — the default migration target
// chooser.
func (ms *Metasystem) LeastLoadedHost(exclude loid.LOID) (*host.Host, loid.LOID, error) {
	var best *host.Host
	for _, h := range ms.Hosts() {
		if h.LOID() == exclude || len(h.CompatibleVaults()) == 0 {
			continue
		}
		if best == nil || h.Load() < best.Load() {
			best = h
		}
	}
	if best == nil {
		return nil, loid.Nil, errors.New("core: no alternative host")
	}
	return best, best.CompatibleVaults()[0], nil
}
