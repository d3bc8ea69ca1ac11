// Package chaos is a scenario harness for failure-injection testing of
// multi-Runtime metasystems.
//
// A World assembles one or more administrative domains (each a
// core.Metasystem behind its own TCP listener, federated with the
// others) and exposes composable fault primitives over them:
//
//   - Flaky: a seeded fraction of calls through a runtime fail with
//     orb.ErrInjectedFault (a retryable transport fault);
//   - CrashHost: a Host object vanishes mid-session (calls return
//     ErrNotBound, the paper's view of a dead/deactivated object);
//   - Partition: calls from one runtime into a named domain all fail;
//   - Slow: a site answers with injected latency.
//
// Faults on the same runtime stack: Flaky and Partition compose, and
// Heal removes everything. Tests drive workloads (typically
// core.PlaceApplication) against the wounded world and assert the
// resilience layer's behaviour: retries absorb flakiness, breakers and
// error classification turn dead endpoints into fast fallbacks, and
// failed negotiations leave no orphaned reservations behind.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"legion/internal/core"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/vault"
	"legion/internal/vclock"
)

// SiteSpec describes one administrative domain of a World.
type SiteSpec struct {
	// Domain names the site (and its runtime).
	Domain string
	// Hosts is how many hosts the site runs.
	Hosts int
	// Vaults is how many vaults the site runs (0 means 1). Every host can
	// reach every site vault, so migration tests can exercise the
	// cross-vault OPR move.
	Vaults int
	// HostMutate, when non-nil, adjusts each host's config (site policy,
	// reservation timeouts, capacity).
	HostMutate func(i int, c *host.Config)
}

// Site is one domain of a World.
type Site struct {
	MS   *core.Metasystem
	Addr string
}

// World is a federation of sites plus the fault state injected into it.
type World struct {
	Sites []*Site

	seed  int64
	clock vclock.Clock
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[*orb.Runtime][]orb.FaultInjector
}

// Clock returns the world's time source (opts.Clock at NewWorld, or the
// wall clock).
func (w *World) Clock() vclock.Clock { return w.clock }

// Seed returns the seed the World's fault RNG was built with.
func (w *World) Seed() int64 { return w.seed }

// NewWorld builds and federates the sites. Every site serves its objects
// over loopback TCP and binds every other site's domain, so any
// cross-domain call travels the real wire protocol. Each site defines a
// "Worker" class for workloads to place. opts is applied to every site
// (its Seed is offset per site so their schedulers do not move in
// lockstep).
func NewWorld(seed int64, opts core.Options, specs ...SiteSpec) (*World, error) {
	w := &World{
		seed:  seed,
		clock: vclock.Default(opts.Clock),
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[*orb.Runtime][]orb.FaultInjector),
	}
	// Virtual-time worlds stay in one address space: TCP connection
	// goroutines are invisible to the discrete-event barrier, so the
	// sites are not served over the wire (links are still simulated —
	// SetLatency sleeps on the virtual clock).
	inProcess := opts.Clock != nil
	for i, spec := range specs {
		o := opts
		o.Seed = opts.Seed + int64(i)
		ms := core.New(spec.Domain, o)
		nVaults := spec.Vaults
		if nVaults <= 0 {
			nVaults = 1
		}
		vaults := make([]loid.LOID, 0, nVaults)
		for j := 0; j < nVaults; j++ {
			v := ms.AddVault(vault.Config{Zone: spec.Domain})
			vaults = append(vaults, v.LOID())
		}
		for j := 0; j < spec.Hosts; j++ {
			cfg := host.Config{
				Arch: "x86", OS: "Linux", OSVersion: "2.2",
				CPUs: 4, MemoryMB: 512, Zone: spec.Domain,
				Vaults: append([]loid.LOID(nil), vaults...),
			}
			if spec.HostMutate != nil {
				spec.HostMutate(j, &cfg)
			}
			ms.AddHost(cfg)
		}
		ms.DefineClass("Worker", nil)
		if inProcess {
			ms.ServeDirectory()
			w.Sites = append(w.Sites, &Site{MS: ms})
			continue
		}
		addr, err := ms.ListenAndServe("127.0.0.1:0")
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("chaos: site %s: %w", spec.Domain, err)
		}
		w.Sites = append(w.Sites, &Site{MS: ms, Addr: addr})
	}
	// Full-mesh federation (served worlds only; an in-process world has
	// no wire addresses to bind).
	for _, a := range w.Sites {
		for _, b := range w.Sites {
			if a != b && b.Addr != "" {
				a.MS.Runtime().BindDomain(b.MS.Domain(), b.Addr)
			}
		}
	}
	return w, nil
}

// Site returns the site for a domain, or nil.
func (w *World) Site(domain string) *Site {
	for _, s := range w.Sites {
		if s.MS.Domain() == domain {
			return s
		}
	}
	return nil
}

// Close shuts every site down.
func (w *World) Close() {
	for _, s := range w.Sites {
		_ = s.MS.Close()
	}
}

// addRule stacks a fault rule on rt; the installed injector consults
// every rule in order and fails the call on the first non-nil error.
func (w *World) addRule(rt *orb.Runtime, rule orb.FaultInjector) {
	w.mu.Lock()
	w.rules[rt] = append(w.rules[rt], rule)
	w.mu.Unlock()
	rt.SetFaultInjector(func(target loid.LOID, method string) error {
		w.mu.Lock()
		rules := append([]orb.FaultInjector(nil), w.rules[rt]...)
		w.mu.Unlock()
		for _, r := range rules {
			if err := r(target, method); err != nil {
				return err
			}
		}
		return nil
	})
}

// Heal removes every fault rule from rt (latency injection included when
// rt belongs to a site).
func (w *World) Heal(rt *orb.Runtime) {
	w.mu.Lock()
	delete(w.rules, rt)
	w.mu.Unlock()
	rt.SetFaultInjector(nil)
	rt.SetLatency(0, 0)
}

// HealAll removes every fault rule everywhere.
func (w *World) HealAll() {
	w.mu.Lock()
	rts := make([]*orb.Runtime, 0, len(w.rules))
	for rt := range w.rules {
		rts = append(rts, rt)
	}
	w.mu.Unlock()
	for _, rt := range rts {
		w.Heal(rt)
	}
	for _, s := range w.Sites {
		s.MS.Runtime().SetLatency(0, 0)
	}
}

// Flaky makes a seeded fraction of calls through rt fail with a
// retryable transport fault. rate is in [0,1].
func (w *World) Flaky(rt *orb.Runtime, rate float64) {
	w.addRule(rt, func(target loid.LOID, method string) error {
		w.mu.Lock()
		hit := w.rng.Float64() < rate
		w.mu.Unlock()
		if hit {
			return fmt.Errorf("%w: flaky link (%s on %v)", orb.ErrInjectedFault, method, target)
		}
		return nil
	})
}

// Partition fails every call from rt into any of the named domains —
// a one-way network partition as seen from rt.
func (w *World) Partition(rt *orb.Runtime, domains ...string) {
	cut := make(map[string]bool, len(domains))
	for _, d := range domains {
		cut[d] = true
	}
	w.addRule(rt, func(target loid.LOID, method string) error {
		if cut[target.Domain] {
			return fmt.Errorf("%w: partitioned from %s", orb.ErrInjectedFault, target.Domain)
		}
		return nil
	})
}

// CrashHost makes site s's i-th host vanish: it is unregistered from the
// site's runtime, so every call to it — local or remote — fails with
// ErrNotBound, exactly how the paper's model renders a dead object. The
// returned function resurrects it.
func (w *World) CrashHost(s *Site, i int) (revive func()) {
	h := s.MS.Hosts()[i]
	s.MS.Runtime().Unregister(h.LOID())
	return func() { s.MS.Runtime().Register(h) }
}

// CrashVault makes site s's i-th vault vanish the same way CrashHost
// kills a host: unregistered from the runtime, every StoreOPR /
// RetrieveOPR / DeleteOPR to it fails with ErrNotBound. The returned
// function resurrects it (its stored OPRs intact — a vault is persistent
// storage, so a crash loses availability, not state).
func (w *World) CrashVault(s *Site, i int) (revive func()) {
	v := s.MS.Vaults()[i]
	s.MS.Runtime().Unregister(v.LOID())
	return func() { s.MS.Runtime().Register(v) }
}

// FlakyMethod makes a seeded fraction of calls to one specific method on
// one specific target fail — surgical fault injection for testing a
// single protocol step (e.g. MethodStartObject on a migration
// destination) while the rest of the world stays healthy.
func (w *World) FlakyMethod(rt *orb.Runtime, target loid.LOID, method string, rate float64) {
	w.addRule(rt, func(t loid.LOID, m string) error {
		if t != target || m != method {
			return nil
		}
		w.mu.Lock()
		hit := w.rng.Float64() < rate
		w.mu.Unlock()
		if hit {
			return fmt.Errorf("%w: flaky method %s on %v", orb.ErrInjectedFault, method, target)
		}
		return nil
	})
}

// Slow makes every call through site s's runtime take at least base
// (plus up to jitter) longer.
func (w *World) Slow(s *Site, base, jitter time.Duration) {
	s.MS.Runtime().SetLatency(base, jitter)
}

// OrphanedReservations reaps every host table at site s and returns how
// many reservations remain active afterwards — after a fully failed
// negotiation this must be zero (rollback cancelled confirmed grants;
// the reaper reclaimed unconfirmed ones).
func (w *World) OrphanedReservations(s *Site) int {
	n := 0
	for _, h := range s.MS.Hosts() {
		h.ReapReservations()
		n += h.ActiveReservations()
	}
	return n
}

// TotalRunning counts running object instances across site s's hosts.
func (w *World) TotalRunning(s *Site) int {
	n := 0
	for _, h := range s.MS.Hosts() {
		n += h.RunningCount()
	}
	return n
}

// Quiesce polls site s until no reservations or instances remain, or
// timeout passes, and returns the final counts. Conservation checks
// need this because cleanup is asynchronous by design: an Enactor
// rollback runs on a server-side goroutine that may still be in flight
// when the last client-side request returns, so an instantaneous count
// taken at drain can observe tokens that are already being released.
// In virtual-time worlds call it from a clock-registered goroutine: the
// polling sleep parks on the discrete-event clock.
func (w *World) Quiesce(s *Site, timeout time.Duration) (reservations, running int) {
	deadline := w.clock.Now().Add(timeout)
	for {
		reservations = w.OrphanedReservations(s)
		running = w.TotalRunning(s)
		if reservations == 0 && running == 0 {
			return 0, 0
		}
		if w.clock.Now().After(deadline) {
			return reservations, running
		}
		if w.clock.Sleep(context.Background(), 5*time.Millisecond) != nil {
			return reservations, running
		}
	}
}
