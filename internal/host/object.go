package host

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/wire"
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

// genericState is the GenericObject's OPR payload: pings, generation,
// then the payload map as a count and key/value pairs sorted by key, so
// one state has exactly one encoding.
type genericState struct {
	payload    map[string]string
	pings      int64
	generation int
}

func (s genericState) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, s.pings)
	b = wire.AppendVarint(b, int64(s.generation))
	keys := make([]string, 0, len(s.payload))
	for k := range s.payload {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = wire.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendString(b, k)
		b = wire.AppendString(b, s.payload[k])
	}
	return b
}

// decodeGenericState refuses input that is truncated, oversized, or not
// the one encoding of the state it describes (unsorted or repeated keys,
// padded varints, trailing bytes).
func decodeGenericState(data []byte) (genericState, error) {
	r := wire.NewReader(data)
	s := genericState{pings: r.Varint(), generation: int(r.Varint())}
	if n := r.Len(); n > 0 {
		s.payload = make(map[string]string, n)
		for ; n > 0 && r.Err == nil; n-- {
			k := r.Str()
			s.payload[k] = r.Str()
		}
	}
	if r.Err == nil && !bytes.Equal(s.appendWire(nil), data) {
		r.Err = errors.New("not in canonical form")
	}
	if r.Err != nil {
		return genericState{}, fmt.Errorf("object: decoding state: %w", r.Err)
	}
	return s, nil
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
func (g *GenericObject) SaveState() ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := genericState{payload: g.payload, pings: g.pings, generation: g.generation}
	return s.appendWire(nil), nil
}

// RestoreState implements opr.Persistent.
func (g *GenericObject) RestoreState(state *opr.OPR) error {
	data, err := state.State()
	if err != nil {
		return err
	}
	s, err := decodeGenericState(data)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.payload = s.payload
	g.pings = s.pings
	g.generation = s.generation + 1
	return nil
}
