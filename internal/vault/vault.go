// Package vault implements Legion Vault objects.
//
// The paper (§2.1): "Vaults are the generic storage abstraction in
// Legion. To be executed, a Legion object must have a Vault to hold its
// persistent state in an Object Persistent Representation (OPR)." And
// §3.1: "Vaults ... only participate in the scheduling process at the
// start, when they verify that they are compatible with a Host. They may,
// in the future, be differentiated by the amount of storage available,
// cost per byte, security policy, etc." — those future attributes are
// implemented here and exported through the Vault's attribute database so
// schedulers can weigh them.
//
// Compatibility is modelled with zones: a Vault and a Host sharing a zone
// (think: a common filesystem or fast network segment) are compatible. A
// Vault in the wildcard zone "*" is reachable from every host.
package vault

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/proto"
)

// Errors returned by Vault operations.
var (
	// ErrNoSpace reports that storing an OPR would exceed capacity.
	ErrNoSpace = errors.New("vault: insufficient storage")
	// ErrNotFound reports a missing OPR.
	ErrNotFound = errors.New("vault: no OPR for object")
	// ErrStale reports an attempt to store an OPR older than the one held.
	ErrStale = errors.New("vault: stale OPR version")
)

// Config parameterizes a Vault.
type Config struct {
	// Zone is the reachability zone (see package doc). "*" means
	// universally reachable.
	Zone string
	// CapacityBytes bounds total stored payload; zero means unlimited.
	CapacityBytes int64
	// CostPerByte is an accounting attribute exported for schedulers.
	CostPerByte float64
	// SecurityPolicy is a free-form label exported for schedulers
	// ("public", "export-controlled", ...).
	SecurityPolicy string
}

// Vault is a Legion Vault object. It is safe for concurrent use and
// implements orb.Object via its embedded ServiceObject.
type Vault struct {
	*orb.ServiceObject
	cfg   Config
	attrs *attr.Set

	mu   sync.Mutex
	oprs map[loid.LOID]*opr.OPR
	used int64
}

// New creates a Vault, mints its LOID from rt, registers its methods, and
// registers it with the runtime.
func New(rt *orb.Runtime, cfg Config) *Vault {
	if cfg.Zone == "" {
		cfg.Zone = "*"
	}
	v := &Vault{
		ServiceObject: orb.NewServiceObject(rt.Mint("Vault")),
		cfg:           cfg,
		oprs:          make(map[loid.LOID]*opr.OPR),
	}
	v.attrs = attr.NewSet(
		attr.Pair{Name: "vault_zone", Value: attr.String(cfg.Zone)},
		attr.Pair{Name: "vault_capacity_bytes", Value: attr.Int(cfg.CapacityBytes)},
		attr.Pair{Name: "vault_used_bytes", Value: attr.Int(0)},
		attr.Pair{Name: "vault_cost_per_byte", Value: attr.Float(cfg.CostPerByte)},
		attr.Pair{Name: "vault_security_policy", Value: attr.String(cfg.SecurityPolicy)},
		attr.Pair{Name: "vault_domain", Value: attr.String(rt.Domain())},
	)
	v.installMethods()
	rt.Register(v)
	return v
}

// Zone returns the vault's reachability zone.
func (v *Vault) Zone() string { return v.cfg.Zone }

// CompatibleWithZone reports whether a host in hostZone can use this
// vault.
func (v *Vault) CompatibleWithZone(hostZone string) bool {
	return v.cfg.Zone == "*" || v.cfg.Zone == hostZone
}

// Store saves an OPR, keeping only the newest version per object. It
// verifies payload integrity and enforces capacity.
func (v *Vault) Store(o *opr.OPR) error {
	if o == nil {
		return errors.New("vault: nil OPR")
	}
	if err := o.Verify(); err != nil {
		return fmt.Errorf("vault: refusing corrupt OPR: %w", err)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	prev, had := v.oprs[o.Object]
	if had && prev.Version > o.Version {
		return fmt.Errorf("%w: held %d, offered %d", ErrStale, prev.Version, o.Version)
	}
	delta := int64(o.Size())
	if had {
		delta -= int64(prev.Size())
	}
	if v.cfg.CapacityBytes > 0 && v.used+delta > v.cfg.CapacityBytes {
		return fmt.Errorf("%w: need %d over %d used of %d",
			ErrNoSpace, delta, v.used, v.cfg.CapacityBytes)
	}
	v.oprs[o.Object] = o.Clone()
	v.used += delta
	v.attrs.Set("vault_used_bytes", attr.Int(v.used))
	return nil
}

// notFoundError is ErrNotFound naming the object. Its text is put
// together only when somebody reads it: a Host tearing down an instance
// that was never deactivated deletes an OPR that is not there, and
// discards the answer, on every teardown.
type notFoundError struct{ object loid.LOID }

func (e notFoundError) Error() string { return ErrNotFound.Error() + ": " + e.object.String() }
func (e notFoundError) Unwrap() error { return ErrNotFound }

// Retrieve returns a copy of the newest OPR stored for the object.
func (v *Vault) Retrieve(object loid.LOID) (*opr.OPR, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	o, ok := v.oprs[object]
	if !ok {
		return nil, notFoundError{object}
	}
	return o.Clone(), nil
}

// Delete removes the object's stored state.
func (v *Vault) Delete(object loid.LOID) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	o, ok := v.oprs[object]
	if !ok {
		return notFoundError{object}
	}
	v.used -= int64(o.Size())
	delete(v.oprs, object)
	v.attrs.Set("vault_used_bytes", attr.Int(v.used))
	return nil
}

// Used returns the stored payload byte count.
func (v *Vault) Used() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.used
}

// Objects returns the LOIDs of all objects with a stored OPR — the
// enumeration the migration conservation audit walks to find orphaned
// copies left behind by failed cross-vault moves.
func (v *Vault) Objects() []loid.LOID {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]loid.LOID, 0, len(v.oprs))
	for l := range v.oprs {
		out = append(out, l)
	}
	return out
}

// Attributes returns a copy of the vault's attribute database, the
// caller's to keep and write.
func (v *Vault) Attributes() []attr.Pair { return slices.Clone(v.attrs.Snapshot()) }

// installMethods wires the orb protocol to the Go API.
func (v *Vault) installMethods() {
	v.HandleTyped(proto.MethodStoreOPR, orb.Typed(func(_ context.Context, a proto.StoreOPRArgs) (proto.Ack, error) {
		return proto.Ack{}, v.Store(a.OPR)
	}))
	v.HandleTyped(proto.MethodRetrieveOPR, orb.Typed(func(_ context.Context, a proto.RetrieveOPRArgs) (proto.RetrieveOPRReply, error) {
		o, err := v.Retrieve(a.Object)
		if err != nil {
			return proto.RetrieveOPRReply{}, err
		}
		return proto.RetrieveOPRReply{OPR: o}, nil
	}))
	v.HandleTyped(proto.MethodDeleteOPR, orb.Typed(func(_ context.Context, a proto.DeleteOPRArgs) (proto.Ack, error) {
		return proto.Ack{}, v.Delete(a.Object)
	}))
	v.HandleTyped(proto.MethodVaultOK, orb.Typed(func(_ context.Context, a proto.VaultOKArgs) (proto.BoolReply, error) {
		// The vault vouches only for itself: a probe naming some other
		// vault (misrouted call, stale LOID) must not be confirmed, and
		// when the caller supplies a host zone the vault also verifies
		// reachability (§3.1: vaults "verify that they are compatible
		// with a Host").
		if !a.Vault.IsNil() && a.Vault != v.LOID() {
			return proto.BoolReply{OK: false}, nil
		}
		if a.Zone != "" && !v.CompatibleWithZone(a.Zone) {
			return proto.BoolReply{OK: false}, nil
		}
		return proto.BoolReply{OK: true}, nil
	}))
	v.Handle(proto.MethodGetAttributes, func(_ context.Context, _ any) (any, error) {
		return proto.AttributesReply{Attrs: v.Attributes()}, nil
	})
}
