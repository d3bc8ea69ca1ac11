// Package orb is the object runtime underlying the Legion resource
// management reproduction.
//
// Legion is an object-oriented metacomputing environment: every component
// — Hosts, Vaults, Collections, Enactors, Class objects — is an active
// object named by a LOID and invoked by location-independent method calls.
// The original system implements this with the Legion run-time library
// (Viles et al. 1997); this package provides the equivalent substrate in
// Go:
//
//   - a Runtime holding a binding table from LOIDs to objects (local) or
//     TCP endpoints (remote),
//   - synchronous method invocation via Call, transparently local or
//     remote,
//   - a binary frame protocol (tcp.go, codec.go) so multiple Runtimes
//     form one metasystem across OS processes ("multi-process
//     emulation"),
//   - fault injection and latency hooks so tests and benchmarks can
//     exercise the failure tolerance the paper requires ("our Legion
//     objects are built to accommodate failure at any step in the
//     scheduling process").
//
// Objects registered with a Runtime must be safe for concurrent use:
// calls are dispatched on the caller's goroutine (local) or a connection
// goroutine (remote), and the runtime imposes no per-object serialization.
package orb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"legion/internal/fanout"
	"legion/internal/loid"
	"legion/internal/telemetry"
	"legion/internal/vclock"
	"legion/internal/wire"
)

// Object is an active Legion object that can receive method calls.
type Object interface {
	// LOID returns the object's name.
	LOID() loid.LOID
	// Dispatch handles one method invocation. Arguments and results are
	// nil, strings, []string, or values of wire-registered types (see
	// RegisterWireMessage); they must be treated as immutable since
	// local calls pass them by reference.
	Dispatch(ctx context.Context, method string, arg any) (any, error)
}

// Errors returned by the runtime itself (as opposed to errors returned by
// the target object's method).
var (
	// ErrNotBound reports that the target LOID has no binding. In the
	// paper's model this is what an inactive (deactivated) object looks
	// like from the outside until its class reactivates it.
	ErrNotBound = errors.New("orb: LOID not bound")
	// ErrNoMethod reports that the object does not implement the method.
	ErrNoMethod = errors.New("orb: no such method")
	// ErrInjectedFault reports a fault introduced by a FaultInjector.
	ErrInjectedFault = errors.New("orb: injected fault")
	// ErrDeadlineExpired reports that a request's propagated deadline had
	// already passed when the serving runtime dequeued the frame, so the
	// method was never invoked — the caller has abandoned the call and any
	// work done for it would be wasted.
	ErrDeadlineExpired = errors.New("orb: deadline expired before dispatch")
)

// RemoteError is a method error that crossed the wire. It preserves the
// message of the remote error; errors.Is matching for sentinel errors
// like ErrNoMethod is handled by the transport.
type RemoteError struct{ Msg string }

// Error implements the error interface.
func (e *RemoteError) Error() string { return e.Msg }

// FaultInjector decides whether a given call should fail artificially.
// Returning a non-nil error aborts the call before it reaches the target.
type FaultInjector func(target loid.LOID, method string) error

// CallTracer observes every call made through a Runtime, for the step
// traces used to reproduce the paper's Figure 3 walkthrough.
type CallTracer func(caller string, target loid.LOID, method string, d time.Duration, err error)

// Runtime is one node of the metasystem: a registry of local objects, a
// binding table for remote ones, and the machinery to invoke both.
type Runtime struct {
	name   string
	minter *loid.Minter

	mu      sync.RWMutex
	objects map[loid.LOID]Object
	remote  map[loid.LOID]string // LOID -> TCP address
	domains map[string]string    // domain -> TCP address (fallback binding)

	clientsMu sync.Mutex
	clients   map[string]*tcpClient

	server *tcpServer

	hooksMu sync.Mutex                // serializes the setters' copy-and-publish
	hooks   atomic.Pointer[callHooks] // never nil; what it points at is never written

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewRuntime creates a runtime for the given administrative domain. The
// domain names the site (site autonomy is a core Legion objective); all
// LOIDs minted through the runtime carry it.
func NewRuntime(domain string) *Runtime {
	rt := &Runtime{
		name:    domain,
		minter:  loid.NewMinter(domain),
		objects: make(map[loid.LOID]Object),
		remote:  make(map[loid.LOID]string),
		domains: make(map[string]string),
		clients: make(map[string]*tcpClient),
		rng:     rand.New(rand.NewSource(1)),
	}
	rt.hooks.Store(&callHooks{
		metrics: telemetry.Default,
		clock:   vclock.Wall,
		srvLim:  fanout.NewLimiter(DefaultServerLimit),
	})
	return rt
}

// callHooks is everything about a Runtime that a setter can replace
// while calls are in flight. It is published whole: Call is the hottest
// path in the system (every scheduler probe, query and reservation goes
// through it) and loads one pointer, takes no lock, and works from one
// consistent snapshot for the length of the call.
type callHooks struct {
	clock    vclock.Clock
	tracer   CallTracer
	inject   FaultInjector
	latency  time.Duration
	jitter   time.Duration
	loopback bool
	metrics  *telemetry.Registry
	srvLim   *fanout.Limiter
}

// setHooks publishes a copy of the current hooks with edit applied.
func (rt *Runtime) setHooks(edit func(h *callHooks)) {
	rt.hooksMu.Lock()
	defer rt.hooksMu.Unlock()
	h := *rt.hooks.Load()
	edit(&h)
	rt.hooks.Store(&h)
}

// Domain returns the runtime's administrative domain name.
func (rt *Runtime) Domain() string { return rt.name }

// Mint mints a fresh LOID in this runtime's domain.
func (rt *Runtime) Mint(class string) loid.LOID { return rt.minter.Mint(class) }

// Register makes a local object callable. Registering an object whose
// LOID is already bound replaces the binding (reactivation).
func (rt *Runtime) Register(obj Object) {
	l := obj.LOID()
	if l.IsNil() {
		panic("orb: registering object with nil LOID")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.objects[l] = obj
	delete(rt.remote, l)
}

// Unregister removes a local object binding; subsequent calls to it fail
// with ErrNotBound. This is the runtime-level half of object deactivation.
func (rt *Runtime) Unregister(l loid.LOID) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.objects, l)
}

// Lookup returns the local object bound to l, if any. Intended for
// co-located fast paths and tests; normal interaction goes through Call.
func (rt *Runtime) Lookup(l loid.LOID) (Object, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	o, ok := rt.objects[l]
	return o, ok
}

// Bind records that the object named l lives at the given TCP address
// (another Runtime's listener).
func (rt *Runtime) Bind(l loid.LOID, addr string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, local := rt.objects[l]; !local {
		rt.remote[l] = addr
	}
}

// BindDomain routes all otherwise-unbound LOIDs of an administrative
// domain to the given address. This models inter-site routing without
// per-object bindings.
func (rt *Runtime) BindDomain(domain, addr string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.domains[domain] = addr
}

// Locals returns the LOIDs of all locally registered objects, in
// unspecified order.
func (rt *Runtime) Locals() []loid.LOID {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]loid.LOID, 0, len(rt.objects))
	for l := range rt.objects {
		out = append(out, l)
	}
	return out
}

// SetFaultInjector installs (or clears, with nil) a fault injector
// consulted before every call.
func (rt *Runtime) SetFaultInjector(f FaultInjector) {
	rt.setHooks(func(h *callHooks) { h.inject = f })
}

// SetLatency adds a simulated base latency and uniform jitter to every
// call made through this runtime, modeling the wide-area links of a
// metasystem. Zero disables.
func (rt *Runtime) SetLatency(base, jitter time.Duration) {
	rt.setHooks(func(h *callHooks) { h.latency, h.jitter = base, jitter })
}

// SetTracer installs (or clears) a tracer observing every call.
func (rt *Runtime) SetTracer(t CallTracer) {
	rt.setHooks(func(h *callHooks) { h.tracer = t })
}

// SetMetrics replaces the runtime's telemetry registry (by default the
// process-wide telemetry.Default). Call it before constructing services
// on the runtime: services cache metric handles at construction.
func (rt *Runtime) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.Default
	}
	rt.setHooks(func(h *callHooks) { h.metrics = reg })
}

// Metrics returns the runtime's telemetry registry.
func (rt *Runtime) Metrics() *telemetry.Registry { return rt.hooks.Load().metrics }

// SetClock replaces the runtime's time source (by default the wall
// clock). The runtime is the distribution point: services built on it
// read the clock here, so install a virtual clock before constructing
// them. nil restores the wall clock.
func (rt *Runtime) SetClock(c vclock.Clock) {
	rt.setHooks(func(h *callHooks) { h.clock = vclock.Default(c) })
}

// Clock returns the runtime's time source.
func (rt *Runtime) Clock() vclock.Clock { return rt.hooks.Load().clock }

// DefaultServerLimit is the default bound on concurrently executing
// inbound request handlers across all of a runtime's server
// connections. Past it, frames are shed with ErrServerOverload instead
// of spawning goroutines until memory is exhausted.
const DefaultServerLimit = 1024

// SetServerLimit replaces the bound on concurrent inbound request
// handlers. Call it before ListenAndServe; connections capture the
// limiter when serving starts. limit < 1 panics.
func (rt *Runtime) SetServerLimit(limit int) {
	lim := fanout.NewLimiter(limit)
	rt.setHooks(func(h *callHooks) { h.srvLim = lim })
}

// serverLimiter returns the current inbound-handler limiter.
func (rt *Runtime) serverLimiter() *fanout.Limiter { return rt.hooks.Load().srvLim }

// SetLoopbackCodec installs (or removes) a marshalling boundary on
// local dispatch: every argument and result round-trips through the
// wire codec. Off (the default) passes values by reference. The
// simulation harness turns this on so in-process experiments pay honest
// per-call marshalling cost — the virtual-time scale runs otherwise
// assume serialization is free.
func (rt *Runtime) SetLoopbackCodec(on bool) {
	rt.setHooks(func(h *callHooks) { h.loopback = on })
}

// loopbackRoundTrip re-materializes v through the wire codec with
// pooled buffers, exactly as it would arrive on the far side of a
// connection.
func loopbackRoundTrip(v any) (any, error) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	b, err := AppendPayload((*buf)[:0], v)
	if err != nil {
		return nil, err
	}
	*buf = b
	r := wire.GetReader(b)
	defer wire.PutReader(r)
	return DecodePayload(r)
}

// dispatchLoopback is local dispatch with the marshalling boundary:
// the argument crosses the codec inbound, the result (or the method's
// error, re-materialized the way a response frame would carry it)
// crosses outbound.
func dispatchLoopback(ctx context.Context, obj Object, method string, arg any) (any, error) {
	arg, err := loopbackRoundTrip(arg)
	if err != nil {
		return nil, fmt.Errorf("orb: loopback encode arg: %w", err)
	}
	res, err := obj.Dispatch(ctx, method, arg)
	if err != nil {
		kind, msg := encodeErr(err)
		return nil, decodeErr(kind, msg)
	}
	res, err = loopbackRoundTrip(res)
	if err != nil {
		return nil, fmt.Errorf("orb: loopback encode result: %w", err)
	}
	return res, nil
}

// Call synchronously invokes method on the object named target, passing
// arg and returning the method's result. It consults, in order: the fault
// injector, the local object table, the per-LOID remote bindings, and the
// per-domain bindings. Call honors ctx cancellation for remote calls and
// latency simulation; local dispatch runs on the caller's goroutine.
func (rt *Runtime) Call(ctx context.Context, target loid.LOID, method string, arg any) (any, error) {
	h := rt.hooks.Load()
	if h.tracer == nil {
		return rt.call(ctx, h, target, method, arg)
	}
	start := h.clock.Now()
	res, err := rt.call(ctx, h, target, method, arg)
	h.tracer(rt.name, target, method, h.clock.Since(start), err)
	return res, err
}

func (rt *Runtime) call(ctx context.Context, h *callHooks, target loid.LOID, method string, arg any) (any, error) {
	if target.IsNil() {
		return nil, fmt.Errorf("%w: nil LOID", ErrNotBound)
	}
	if h.inject != nil {
		if err := h.inject(target, method); err != nil {
			return nil, err
		}
	}
	if h.latency > 0 || h.jitter > 0 {
		d := h.latency
		if h.jitter > 0 {
			rt.rngMu.Lock()
			d += time.Duration(rt.rng.Int63n(int64(h.jitter) + 1))
			rt.rngMu.Unlock()
		}
		if err := h.clock.Sleep(ctx, d); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				// The caller's deadline passed on the (simulated) link, so
				// the method was never invoked: the refusal the TCP server
				// gives a frame that arrives expired, and like it a
				// guarantee callers act on (the Wrapper releases the
				// reservations of an episode whose enact_schedule never
				// ran). It is still the context's error underneath.
				return nil, fmt.Errorf("%w: %w", ErrDeadlineExpired, err)
			}
			return nil, err
		}
	}

	rt.mu.RLock()
	obj, local := rt.objects[target]
	addr, bound := rt.remote[target]
	if !local && !bound {
		addr, bound = rt.domains[target.Domain]
	}
	rt.mu.RUnlock()

	if local {
		if h.loopback {
			return dispatchLoopback(ctx, obj, method, arg)
		}
		return obj.Dispatch(ctx, method, arg)
	}
	if bound {
		return rt.callRemote(ctx, addr, target, method, arg)
	}
	return nil, fmt.Errorf("%w: %v", ErrNotBound, target)
}
