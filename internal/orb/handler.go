package orb

import (
	"context"
	"fmt"
	"sync"

	"legion/internal/loid"
)

// Method is one exported method of a ServiceObject.
type Method func(ctx context.Context, arg any) (any, error)

// SharedMethod is a Method whose receiver is bound at dispatch time, so
// one immutable table can serve every instance of a class. recv is the
// value passed to InitShared (typically the embedding struct, e.g.
// *host.Host).
type SharedMethod func(ctx context.Context, recv, arg any) (any, error)

// Handler is a Method that knows its argument and reply types, as Typed
// builds it: Invoke calls it with both by value, a frame from the socket
// is served through its wire form, and every other call goes through
// its boxed form.
type Handler struct {
	boxed Method
	typed any // func(context.Context, A) (R, error)
	wire  wireMethod
}

// SharedHandler is a SharedMethod that knows its argument and reply
// types, as SharedTyped builds it.
type SharedHandler struct {
	boxed SharedMethod
	typed any // func(context.Context, any, A) (R, error)
	wire  wireMethod
}

// wireMethod is a method's wire form: it serves a request frame with the
// argument and the reply as values. A method has one when it was
// registered through Typed or SharedTyped and both its types had codecs
// (see RegisterWireMessage) when the handler was built.
type wireMethod interface {
	// serve decodes the frame's payload as an A onto the handler's stack
	// and serves the frame on e's entry, with the reply appended through
	// R's codec. A payload of another type, or nil, is served boxed.
	serve(f *frame, e entry) error
}

// Typed adapts a handler of one argument and one reply type. The caller
// may be remote or version-skewed, so an argument of another type is
// refused with an error, never a panic; a failed call replies nil.
func Typed[A, R any](f func(ctx context.Context, a A) (R, error)) Handler {
	return Handler{
		boxed: func(ctx context.Context, arg any) (any, error) {
			a, err := argAs[A](arg)
			if err != nil {
				return nil, err
			}
			r, err := f(ctx, a)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
		typed: f,
		wire: wireForm(func(ctx context.Context, _ any, a A) (R, error) {
			return f(ctx, a)
		}),
	}
}

// SharedTyped is Typed for a class-wide table: recv is the receiver
// bound by InitShared.
func SharedTyped[V, A, R any](f func(ctx context.Context, recv V, a A) (R, error)) SharedHandler {
	typed := func(ctx context.Context, recv any, a A) (R, error) {
		return f(ctx, recv.(V), a)
	}
	return SharedHandler{
		boxed: func(ctx context.Context, recv, arg any) (any, error) {
			a, err := argAs[A](arg)
			if err != nil {
				return nil, err
			}
			r, err := f(ctx, recv.(V), a)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
		typed: typed,
		wire:  wireForm(typed),
	}
}

// wireForm is f's wire form, or nil unless both A and R have codecs
// when the handler is built.
func wireForm[A, R any](f func(ctx context.Context, recv any, a A) (R, error)) wireMethod {
	ac, rc := codecOf[A](), codecOf[R]()
	if ac == nil || rc == nil {
		return nil
	}
	return &typedWire[A, R]{ac: ac, rc: rc, f: f}
}

// typedWire is the wireMethod of a method of argument A and reply R.
type typedWire[A, R any] struct {
	ac *typedCodec[A]
	rc *typedCodec[R]
	f  func(ctx context.Context, recv any, a A) (R, error)
}

func (w *typedWire[A, R]) serve(f *frame, e entry) error {
	a, ok, err := w.ac.decodeTagged(&f.r)
	if !ok {
		return f.serveBoxed(e)
	}
	if err == nil {
		err = frameEnd(&f.r)
	}
	if err != nil {
		return f.refuse(err)
	}
	return f.process(func(ctx context.Context, h *callHooks, obj Object, addr string) (any, bool, error) {
		if !e.serves(h, obj) {
			res, err := f.s.rt.dispatch(ctx, h, obj, addr, f.req.Target, f.req.Method, a)
			return res, false, err
		}
		r, err := w.f(ctx, e.recv, a)
		if err != nil {
			return nil, false, err
		}
		*f.buf = w.rc.append((*f.buf)[:0], r)
		return nil, true, nil
	})
}

func argAs[A any](arg any) (A, error) {
	a, ok := arg.(A)
	if !ok {
		return a, fmt.Errorf("orb: want argument %T, got %T", a, arg)
	}
	return a, nil
}

// As types a call's result, passing a call error through. A peer may
// answer with any registered type, so a reply of another type is an
// error like any other, never a panic.
func As[T any](res any, err error) (T, error) {
	reply, ok := res.(T)
	if err == nil && !ok {
		err = fmt.Errorf("orb: unexpected reply %T", res)
	}
	return reply, err
}

// DispatchTable is a build-once method table shared across all instances
// of a class. At metasystem scale the per-instance method map is the
// dominant per-object allocation (a Host registers ~12 closures, and
// every placed application instance registers several more); a shared
// table replaces 100k copies of that map with one. Populate the table
// fully before handing it to any object — lookups are deliberately
// lock-free and concurrent mutation is a race.
type DispatchTable struct {
	m map[string]SharedHandler
}

// NewDispatchTable creates an empty table.
func NewDispatchTable() *DispatchTable {
	return &DispatchTable{m: make(map[string]SharedHandler)}
}

// Handle registers (or replaces) a method. Not safe to call after the
// table is in use.
func (t *DispatchTable) Handle(name string, m SharedMethod) {
	t.m[name] = SharedHandler{boxed: m}
}

// HandleTyped is Handle for a method built by SharedTyped.
func (t *DispatchTable) HandleTyped(name string, h SharedHandler) {
	t.m[name] = h
}

// Methods returns the names of all registered methods.
func (t *DispatchTable) Methods() []string {
	out := make([]string, 0, len(t.m))
	for name := range t.m {
		out = append(out, name)
	}
	return out
}

// ServiceObject is a convenience Object implementation backed by a method
// table. The RMI components (Hosts, Collections, Enactors, ...) embed it
// and register their methods at construction time; tests use it to stand
// up lightweight objects. Classes instantiated at scale (Hosts,
// application instances) instead embed it by value and share one
// class-wide DispatchTable through InitShared; per-instance Handle
// registrations still work and override the shared table.
type ServiceObject struct {
	l      loid.LOID
	shared *DispatchTable
	recv   any
	mu     sync.RWMutex
	m      map[string]Handler // lazily allocated; most shared objects never need it
}

// NewServiceObject creates a ServiceObject named l with no methods.
func NewServiceObject(l loid.LOID) *ServiceObject {
	return &ServiceObject{l: l}
}

// InitShared names s, a ServiceObject embedded by value, l and makes it
// dispatch through the class-wide table, passing recv (usually the
// embedding struct) to every SharedMethod. An object and its dispatch
// are then one allocation. Call it before s is registered with a
// runtime.
func (s *ServiceObject) InitShared(l loid.LOID, table *DispatchTable, recv any) {
	s.l, s.shared, s.recv = l, table, recv
}

// LOID implements Object.
func (s *ServiceObject) LOID() loid.LOID { return s.l }

// Handle registers (or replaces) a per-instance method, shadowing any
// shared-table method of the same name.
func (s *ServiceObject) Handle(name string, m Method) {
	s.HandleTyped(name, Handler{boxed: m})
}

// HandleTyped is Handle for a method built by Typed.
func (s *ServiceObject) HandleTyped(name string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]Handler)
	}
	s.m[name] = h
}

// Methods returns the names of all registered methods (shared and
// per-instance); useful for the interface-conformance checks in the
// Table 1 reproduction.
func (s *ServiceObject) Methods() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := make(map[string]bool, len(s.m))
	out := make([]string, 0, len(s.m))
	for name := range s.m {
		seen[name] = true
		out = append(out, name)
	}
	if s.shared != nil {
		for name := range s.shared.m {
			if !seen[name] {
				out = append(out, name)
			}
		}
	}
	return out
}

// Dispatch implements Object.
func (s *ServiceObject) Dispatch(ctx context.Context, method string, arg any) (any, error) {
	s.mu.RLock()
	m, ok := s.m[method]
	s.mu.RUnlock()
	if ok {
		return m.boxed(ctx, arg)
	}
	if s.shared != nil {
		if sm, ok := s.shared.m[method]; ok {
			return sm.boxed(ctx, s.recv, arg)
		}
	}
	return nil, fmt.Errorf("%w: %q on %v", ErrNoMethod, method, s.l)
}

// service lets Invoke find the ServiceObject a registered Object embeds.
func (s *ServiceObject) service() *ServiceObject { return s }

// serviceOf returns the ServiceObject obj is or embeds, or nil.
func serviceOf(obj Object) *ServiceObject {
	if so, ok := obj.(interface{ service() *ServiceObject }); ok {
		return so.service()
	}
	return nil
}

// entry is a ServiceObject's method as a request frame is served
// through it: its boxed form, bound to the receiver, and its wire form.
// Its zero value is no method.
type entry struct {
	svc  *ServiceObject
	recv any          // the receiver, for a method from a class-wide table
	m    Method       // the boxed form of a per-instance method,
	sm   SharedMethod // or of a class-wide one
	wire wireMethod
}

// lookup returns s's entry for method, shadowed as Dispatch shadows it.
func (s *ServiceObject) lookup(method string) entry {
	s.mu.RLock()
	m, ok := s.m[method]
	s.mu.RUnlock()
	if ok {
		return entry{svc: s, m: m.boxed, wire: m.wire}
	}
	if s.shared != nil {
		if sm, ok := s.shared.m[method]; ok {
			return entry{svc: s, recv: s.recv, sm: sm.boxed, wire: sm.wire}
		}
	}
	return entry{}
}

// serves reports whether e is what a call routed to obj under h runs:
// obj is e's ServiceObject, and the loopback codec is off.
func (e *entry) serves(h *callHooks, obj Object) bool {
	return e.svc != nil && !h.loopback && serviceOf(obj) == e.svc
}

// call runs e's boxed form on arg.
func (e *entry) call(ctx context.Context, arg any) (any, error) {
	if e.m != nil {
		return e.m(ctx, arg)
	}
	return e.sm(ctx, e.recv, arg)
}

// callTyped runs method on obj with arg and reply by value when obj is a
// ServiceObject whose entry for method was registered for exactly A and
// R. ran is false, and nothing ran, otherwise.
func callTyped[A, R any](ctx context.Context, obj Object, method string, arg A) (res R, ran bool, err error) {
	s := serviceOf(obj)
	if s == nil {
		return res, false, nil
	}
	s.mu.RLock()
	m, ok := s.m[method]
	s.mu.RUnlock()
	if ok {
		if f, ok := m.typed.(func(context.Context, A) (R, error)); ok {
			res, err = f(ctx, arg)
			return res, true, err
		}
		return res, false, nil
	}
	if s.shared != nil {
		if f, ok := s.shared.m[method].typed.(func(context.Context, any, A) (R, error)); ok {
			res, err = f(ctx, s.recv, arg)
			return res, true, err
		}
	}
	return res, false, nil
}
