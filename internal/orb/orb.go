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
	// ErrOverload is the shed: a live server refused the request under
	// load without running it (the server's handler pool, the Enactor's
	// admission gate, a Host's occupancy watermark). It is a refusal,
	// not a transport failure: retrying it feeds the overload, and a
	// breaker that counted it would take a live endpoint out of rotation.
	ErrOverload = errors.New("legion: overloaded, request shed")
	// ErrUnreachable reports that the dial or the connection preamble
	// failed, so the request was never written.
	ErrUnreachable = errors.New("orb: unreachable")
	// ErrConnLost reports that the connection failed after the call was
	// registered on it, so the call may have run.
	ErrConnLost = errors.New("orb: connection lost")
)

// RemoteError is an error the callee answered with, as the response
// frame carried it. Msg is its text as sent. When the frame's kind
// names one of the sentinels above (ErrNotBound, ErrNoMethod,
// ErrDeadlineExpired, ErrOverload), the error unwraps to it, so
// errors.Is works across the wire. Any other error crosses as its text
// alone: the callee ran and answered, whatever the text says.
type RemoteError struct {
	Msg  string
	kind error
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return e.Msg }

// Unwrap returns the sentinel the frame's kind named, or nil.
func (e *RemoteError) Unwrap() error { return e.kind }

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
// clock). It is the only clock setter: services built on the runtime
// take the clock here once, at construction, and keep it, so install a
// virtual clock before constructing them. nil restores the wall clock.
func (rt *Runtime) SetClock(c vclock.Clock) {
	rt.setHooks(func(h *callHooks) { h.clock = vclock.Default(c) })
}

// Clock returns the runtime's time source.
func (rt *Runtime) Clock() vclock.Clock { return rt.hooks.Load().clock }

// DefaultServerLimit is the bound on concurrently executing inbound
// request handlers across all of a runtime's server connections. Past
// it, frames are shed with ErrOverload instead of spawning goroutines
// until memory is exhausted.
const DefaultServerLimit = 1024

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
	return traced(rt, h, target, method, func() (any, error) {
		return rt.call(ctx, h, target, method, arg)
	})
}

// traced runs call, and reports it to h's tracer when there is one: the
// one wrapper Call, Invoke and a served request frame share.
func traced[T any](rt *Runtime, h *callHooks, target loid.LOID, method string, call func() (T, error)) (T, error) {
	if h.tracer == nil {
		return call()
	}
	start := h.clock.Now()
	res, err := call()
	h.tracer(rt.name, target, method, h.clock.Since(start), err)
	return res, err
}

func (rt *Runtime) call(ctx context.Context, h *callHooks, target loid.LOID, method string, arg any) (any, error) {
	obj, addr, err := rt.route(ctx, h, target, method)
	if err != nil {
		return nil, err
	}
	return rt.dispatch(ctx, h, obj, addr, target, method, arg)
}

// Invoke is Call typed by its argument and reply. It runs Call's hooks
// in the same order (tracer, fault injector, latency). A local
// ServiceObject whose method was registered through Typed or SharedTyped
// for exactly A and R, with the loopback codec off, runs with both
// passed by value, so neither is boxed. A remote target, when A and R
// both have codecs (see RegisterWireMessage), gets arg appended through
// A's codec, and the reply is decoded through R's on the caller's
// goroutine, so neither is boxed there either. Every other call boxes
// arg once and goes the way Call does. A reply of another type than R
// is an error, as with As.
func Invoke[R, A any](ctx context.Context, rt *Runtime, target loid.LOID, method string, arg A) (R, error) {
	h := rt.hooks.Load()
	return traced(rt, h, target, method, func() (R, error) {
		return invoke[R](ctx, rt, h, target, method, arg)
	})
}

func invoke[R, A any](ctx context.Context, rt *Runtime, h *callHooks, target loid.LOID, method string, arg A) (R, error) {
	obj, addr, err := rt.route(ctx, h, target, method)
	if err != nil {
		var zero R
		return zero, err
	}
	if obj == nil {
		if ac, rc := codecOf[A](), codecOf[R](); ac != nil && rc != nil {
			return invokeRemote(ctx, rt, addr, target, method, arg, ac, rc)
		}
	} else if !h.loopback {
		if res, ran, err := callTyped[A, R](ctx, obj, method, arg); ran {
			return res, err
		}
	}
	return As[R](rt.dispatch(ctx, h, obj, addr, target, method, arg))
}

// entryOf returns target's entry for method, as a request frame's
// payload is decoded through it: the zero entry unless target is a local
// ServiceObject with an entry for method and the loopback codec is off.
func (rt *Runtime) entryOf(target loid.LOID, method string) entry {
	if rt.hooks.Load().loopback {
		return entry{}
	}
	if obj, ok := rt.Lookup(target); ok {
		if s := serviceOf(obj); s != nil {
			return s.lookup(method)
		}
	}
	return entry{}
}

// route runs a call's fault injector and then its link latency, and
// resolves target: to a local object, or else to the address of the
// runtime that serves it.
func (rt *Runtime) route(ctx context.Context, h *callHooks, target loid.LOID, method string) (Object, string, error) {
	if target.IsNil() {
		return nil, "", fmt.Errorf("%w: nil LOID", ErrNotBound)
	}
	if h.inject != nil {
		if err := h.inject(target, method); err != nil {
			return nil, "", err
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
				return nil, "", fmt.Errorf("%w: %w", ErrDeadlineExpired, err)
			}
			return nil, "", err
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
		return obj, "", nil
	}
	if bound {
		return nil, addr, nil
	}
	return nil, "", fmt.Errorf("%w: %v", ErrNotBound, target)
}

// dispatch delivers a routed call: to obj when it is local, through the
// loopback codec if that is on, else over the connection to addr.
func (rt *Runtime) dispatch(ctx context.Context, h *callHooks, obj Object, addr string, target loid.LOID, method string, arg any) (any, error) {
	if obj == nil {
		return rt.callRemote(ctx, addr, target, method, arg)
	}
	if h.loopback {
		return dispatchLoopback(ctx, obj, method, arg)
	}
	return obj.Dispatch(ctx, method, arg)
}
