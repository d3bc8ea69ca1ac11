package host

import (
	"context"
	"fmt"
	"sync"

	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/orb"
)

// GenericObject is the default activated user object: a minimal Legion
// object that holds mutable state, answers pings, and supports the
// automatic shutdown/restart protocol (opr.Persistent) that makes every
// Legion object migratable.
//
// Applications with richer behaviour install their own Activator; the
// examples and experiments mostly need an object whose state provably
// survives deactivation, migration, and reactivation.
type GenericObject struct {
	*orb.ServiceObject
	class loid.LOID

	mu      sync.Mutex
	payload map[string]string
	pings   int64
	// generation counts reactivations, proving state continuity across
	// migrations in tests.
	generation int
}

// genericState is the GenericObject's OPR payload.
type genericState struct {
	Payload    map[string]string
	Pings      int64
	Generation int
}

// genericMethods is the class-wide dispatch table all GenericObjects
// share. Placement experiments create (and destroy) one GenericObject
// per placed instance — millions per scale run — so the per-instance
// closures this replaces were the dominant activation allocation. The
// payload map is likewise deferred until the first "set".
var (
	genericTableOnce sync.Once
	genericTable     *orb.DispatchTable
)

func genericMethods() *orb.DispatchTable {
	genericTableOnce.Do(func() {
		t := orb.NewDispatchTable()
		t.Handle("ping", func(_ context.Context, recv, _ any) (any, error) {
			g := recv.(*GenericObject)
			g.mu.Lock()
			g.pings++
			g.mu.Unlock()
			return "pong", nil
		})
		t.Handle("get", func(_ context.Context, recv, arg any) (any, error) {
			key, ok := arg.(string)
			if !ok {
				return nil, fmt.Errorf("object: want string key, got %T", arg)
			}
			g := recv.(*GenericObject)
			g.mu.Lock()
			defer g.mu.Unlock()
			return g.payload[key], nil
		})
		t.Handle("set", func(_ context.Context, recv, arg any) (any, error) {
			kv, ok := arg.([]string)
			if !ok || len(kv) != 2 {
				return nil, fmt.Errorf("object: want [key, value], got %T", arg)
			}
			g := recv.(*GenericObject)
			g.mu.Lock()
			if g.payload == nil {
				g.payload = make(map[string]string)
			}
			g.payload[kv[0]] = kv[1]
			g.mu.Unlock()
			return nil, nil
		})
		genericTable = t
	})
	return genericTable
}

// NewGenericObject creates a GenericObject for the instance, restoring
// from the OPR when non-nil.
func NewGenericObject(instance, class loid.LOID, state *opr.OPR) (*GenericObject, error) {
	g := &GenericObject{
		ServiceObject: orb.NewSharedServiceObject(instance, genericMethods(), nil),
		class:         class,
	}
	g.BindReceiver(g)
	if state != nil {
		if err := g.RestoreState(state); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Class returns the object's class LOID.
func (g *GenericObject) Class() loid.LOID { return g.class }

// Pings returns how many pings the object has served (across
// reactivations, since the count persists in the OPR).
func (g *GenericObject) Pings() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pings
}

// Generation returns how many times this object has been reactivated
// from an OPR.
func (g *GenericObject) Generation() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.generation
}

// SaveState implements opr.Persistent.
func (g *GenericObject) SaveState() (any, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var p map[string]string
	if len(g.payload) > 0 {
		p = make(map[string]string, len(g.payload))
		for k, v := range g.payload {
			p[k] = v
		}
	}
	return genericState{Payload: p, Pings: g.pings, Generation: g.generation}, nil
}

// RestoreState implements opr.Persistent.
func (g *GenericObject) RestoreState(state *opr.OPR) error {
	var s genericState
	if err := state.Decode(&s); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.payload = s.Payload
	g.pings = s.Pings
	g.generation = s.Generation + 1
	return nil
}
