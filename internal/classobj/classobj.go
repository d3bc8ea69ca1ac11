// Package classobj implements Legion Class objects.
//
// The paper (§2.1): "Class objects in Legion serve two functions. As in
// other object-oriented systems, Classes define the types of their
// instances. In Legion, Classes are also active entities, and act as
// managers for their instances. Thus, a Class is the final authority in
// matters pertaining to its instances, including object placement. The
// Class exports the create_instance() method, which is responsible for
// placing an instance on a viable host. create_instance takes an optional
// argument suggesting a placement, which is necessary to implement
// external Schedulers. In the absence of this argument, the Class makes a
// quick (and almost certainly non-optimal) placement decision."
//
// And §3.4: "This method has an optional argument containing an LOID and
// a reservation token. Use of the optional argument allows directed
// placement of objects ... The Class object is still responsible for
// checking the placement for validity and conformance to local policy,
// but the Class does not have to go through the standard placement steps."
package classobj

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/proto"
)

// Errors returned by Class operations.
var (
	// ErrNoPlacement reports that no viable placement could be found or
	// that a directed placement was rejected.
	ErrNoPlacement = errors.New("classobj: no viable placement")
	// ErrUnknownInstance reports an operation on an instance this class
	// does not manage.
	ErrUnknownInstance = errors.New("classobj: unknown instance")
)

// QuickPlacer produces the class's own placement when create_instance is
// called without a directed placement — the "quick (and almost certainly
// non-optimal) placement decision". It must return a placement whose
// Token has already been granted by the host.
type QuickPlacer func(ctx context.Context, c *Class, count int) (proto.Placement, error)

// PlacementPolicy allows a class to refuse directed placements
// ("conformance to local policy"). nil accepts all.
type PlacementPolicy func(p proto.Placement) error

// instanceInfo records where an instance runs.
type instanceInfo struct {
	host  loid.LOID
	vault loid.LOID
}

// Class is a Legion class object.
type Class struct {
	*orb.ServiceObject
	rt   *orb.Runtime
	name string
	meta loid.LOID // this class's own class (LegionClass in Fig 1)

	mu        sync.Mutex
	impls     []proto.Implementation
	instances map[loid.LOID]instanceInfo
	placer    QuickPlacer
	policy    PlacementPolicy

	created int64
}

// Config parameterizes a Class.
type Config struct {
	// Name is the class name; instance LOIDs carry it.
	Name string
	// Meta is the managing class object (LegionClass for top-level
	// classes); may be Nil for the root.
	Meta loid.LOID
	// Impls lists the available implementations; schedulers query these
	// to match hosts.
	Impls []proto.Implementation
	// Policy validates directed placements; nil accepts all.
	Policy PlacementPolicy
}

// New creates a Class, registers its methods and itself with rt.
func New(rt *orb.Runtime, cfg Config) *Class {
	if cfg.Name == "" {
		panic("classobj: empty class name")
	}
	c := &Class{
		ServiceObject: orb.NewServiceObject(rt.Mint(cfg.Name + "Class")),
		rt:            rt,
		name:          cfg.Name,
		meta:          cfg.Meta,
		impls:         append([]proto.Implementation(nil), cfg.Impls...),
		instances:     make(map[loid.LOID]instanceInfo),
		policy:        cfg.Policy,
	}
	c.installMethods()
	rt.Register(c)
	return c
}

// Meta returns the LOID of this class's managing class object.
func (c *Class) Meta() loid.LOID { return c.meta }

// SetPlacer replaces the quick-placement fallback. A class without one
// fails undirected create_instance.
func (c *Class) SetPlacer(p QuickPlacer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.placer = p
}

// Implementations returns the class's available implementations.
func (c *Class) Implementations() []proto.Implementation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]proto.Implementation(nil), c.impls...)
}

// Instances returns the LOIDs of managed instances, sorted.
func (c *Class) Instances() []loid.LOID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]loid.LOID, 0, len(c.instances))
	for l := range c.instances {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// WhereIs returns the (host, vault) an instance runs on.
func (c *Class) WhereIs(instance loid.LOID) (hostL, vaultL loid.LOID, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	info, ok := c.instances[instance]
	if !ok {
		return loid.Nil, loid.Nil, fmt.Errorf("%w: %v", ErrUnknownInstance, instance)
	}
	return info.host, info.vault, nil
}

// AdoptInstance records an externally created instance (used to build the
// Figure 1 hierarchy, where HostClass manages Host objects the system
// bootstrapped directly).
func (c *Class) AdoptInstance(instance, hostL, vaultL loid.LOID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.instances[instance] = instanceInfo{host: hostL, vault: vaultL}
}

// ForgetInstance removes an instance record without killing the object
// (used during migration when the instance moves hosts).
func (c *Class) ForgetInstance(instance loid.LOID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.instances, instance)
}

// CreateInstance implements create_instance. With placement nil the
// class's QuickPlacer picks a (Host, Vault, Token); otherwise the
// directed placement is validated and used. It returns the instance
// LOIDs started.
func (c *Class) CreateInstance(ctx context.Context, count int, placement *proto.Placement, state *opr.OPR) ([]loid.LOID, proto.Placement, error) {
	if count < 1 {
		count = 1
	}
	var p proto.Placement
	if placement == nil {
		c.mu.Lock()
		placer := c.placer
		c.mu.Unlock()
		if placer == nil {
			return nil, p, fmt.Errorf("%w: no directed placement and no quick placer", ErrNoPlacement)
		}
		var err error
		p, err = placer(ctx, c, count)
		if err != nil {
			return nil, p, fmt.Errorf("%w: quick placement: %v", ErrNoPlacement, err)
		}
	} else {
		p = *placement
		if p.Host.IsNil() || p.Vault.IsNil() {
			return nil, p, fmt.Errorf("%w: directed placement with nil LOID", ErrNoPlacement)
		}
		c.mu.Lock()
		policy := c.policy
		c.mu.Unlock()
		if policy != nil {
			if err := policy(p); err != nil {
				return nil, p, fmt.Errorf("%w: policy: %v", ErrNoPlacement, err)
			}
		}
	}

	// Mint the instance LOIDs; the class is the naming authority for its
	// instances.
	insts := make([]loid.LOID, count)
	for i := range insts {
		insts[i] = c.rt.Mint(c.name)
	}
	reply, err := orb.Invoke[proto.StartObjectReply](ctx, c.rt, p.Host, proto.MethodStartObject, proto.StartObjectArgs{
		Token:     p.Token,
		Class:     c.LOID(),
		Instances: insts,
		State:     state,
	})
	if err != nil {
		return nil, p, fmt.Errorf("classobj: startObject on %v: %w", p.Host, err)
	}
	c.mu.Lock()
	for _, inst := range reply.Started {
		c.instances[inst] = instanceInfo{host: p.Host, vault: p.Vault}
	}
	c.created += int64(len(reply.Started))
	c.mu.Unlock()
	return reply.Started, p, nil
}

// DestroyInstance kills a managed instance via its host.
func (c *Class) DestroyInstance(ctx context.Context, instance loid.LOID) error {
	c.mu.Lock()
	info, ok := c.instances[instance]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownInstance, instance)
	}
	if _, err := orb.Invoke[proto.Ack](ctx, c.rt, info.host, proto.MethodKillObject, proto.ObjectArgs{Object: instance}); err != nil {
		return fmt.Errorf("classobj: killObject on %v: %w", info.host, err)
	}
	c.mu.Lock()
	delete(c.instances, instance)
	c.mu.Unlock()
	return nil
}

// Created returns the lifetime count of instances this class started.
func (c *Class) Created() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.created
}

func (c *Class) installMethods() {
	c.HandleTyped(proto.MethodCreateInstance, orb.Typed(func(ctx context.Context, a proto.CreateInstanceArgs) (proto.CreateInstanceReply, error) {
		insts, p, err := c.CreateInstance(ctx, a.Count, a.Placement, a.State)
		if err != nil {
			return proto.CreateInstanceReply{}, err
		}
		return proto.CreateInstanceReply{Instances: insts, Host: p.Host, Vault: p.Vault}, nil
	}))
	c.Handle(proto.MethodGetImplementations, func(_ context.Context, _ any) (any, error) {
		return proto.ImplementationsReply{Impls: c.Implementations()}, nil
	})
	c.Handle(proto.MethodListInstances, func(_ context.Context, _ any) (any, error) {
		return proto.InstancesReply{Instances: c.Instances()}, nil
	})
	c.HandleTyped(proto.MethodDestroyInstance, orb.Typed(func(ctx context.Context, a proto.ObjectArgs) (proto.Ack, error) {
		return proto.Ack{}, c.DestroyInstance(ctx, a.Object)
	}))
}
