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
// value passed to NewSharedServiceObject (typically the embedding
// struct, e.g. *host.Host).
type SharedMethod func(ctx context.Context, recv, arg any) (any, error)

// Typed adapts a handler of one argument type to a Method. The caller
// may be remote or version-skewed, so an argument of another type is
// refused with an error, never a panic.
func Typed[A any](f func(ctx context.Context, a A) (any, error)) Method {
	return func(ctx context.Context, arg any) (any, error) {
		a, err := argAs[A](arg)
		if err != nil {
			return nil, err
		}
		return f(ctx, a)
	}
}

// SharedTyped is Typed for a class-wide table: recv is the receiver
// bound by NewSharedServiceObject or BindReceiver.
func SharedTyped[R, A any](f func(ctx context.Context, recv R, a A) (any, error)) SharedMethod {
	return func(ctx context.Context, recv, arg any) (any, error) {
		a, err := argAs[A](arg)
		if err != nil {
			return nil, err
		}
		return f(ctx, recv.(R), a)
	}
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
	m map[string]SharedMethod
}

// NewDispatchTable creates an empty table.
func NewDispatchTable() *DispatchTable {
	return &DispatchTable{m: make(map[string]SharedMethod)}
}

// Handle registers (or replaces) a method. Not safe to call after the
// table is in use.
func (t *DispatchTable) Handle(name string, m SharedMethod) {
	t.m[name] = m
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
// application instances) instead share one class-wide DispatchTable via
// NewSharedServiceObject; per-instance Handle registrations still work
// and override the shared table.
type ServiceObject struct {
	l      loid.LOID
	shared *DispatchTable
	recv   any
	mu     sync.RWMutex
	m      map[string]Method // lazily allocated; most shared objects never need it
}

// NewServiceObject creates a ServiceObject named l with no methods.
func NewServiceObject(l loid.LOID) *ServiceObject {
	return &ServiceObject{l: l}
}

// NewSharedServiceObject creates a ServiceObject named l dispatching
// through the class-wide table, passing recv to every SharedMethod.
func NewSharedServiceObject(l loid.LOID, table *DispatchTable, recv any) *ServiceObject {
	return &ServiceObject{l: l, shared: table, recv: recv}
}

// BindReceiver sets the value passed to SharedMethods. It exists for
// embedding structs that can only self-reference after construction;
// call it before the object is registered with a runtime.
func (s *ServiceObject) BindReceiver(recv any) { s.recv = recv }

// LOID implements Object.
func (s *ServiceObject) LOID() loid.LOID { return s.l }

// Handle registers (or replaces) a per-instance method, shadowing any
// shared-table method of the same name.
func (s *ServiceObject) Handle(name string, m Method) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]Method)
	}
	s.m[name] = m
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
		return m(ctx, arg)
	}
	if s.shared != nil {
		if sm, ok := s.shared.m[method]; ok {
			return sm(ctx, s.recv, arg)
		}
	}
	return nil, fmt.Errorf("%w: %q on %v", ErrNoMethod, method, s.l)
}
