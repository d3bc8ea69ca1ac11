// Package opr implements the Object Persistent Representation.
//
// The paper (§2.1): "To be executed, a Legion object must have a Vault to
// hold its persistent state in an Object Persistent Representation (OPR).
// The OPR is used for migration and for shutdown/restart purposes. All
// Legion objects automatically support shutdown and restart, and
// therefore any active object can be migrated by shutting it down, moving
// the passive state to a new Vault if necessary, and activating the
// object on another host."
//
// An OPR here is an envelope over bytes: the passive state exactly as
// the object wrote it, plus integrity metadata — the owning LOID, a
// monotonically increasing version, the save instant on the saving
// host's clock, and a SHA-256 digest over the payload so a Vault (or the
// object itself, on restart) can detect corruption. The package does not
// know how state is encoded; an object that writes the same bytes for
// the same state gets the same digest.
package opr

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"legion/internal/loid"
)

// OPR is the passive, storable representation of a Legion object.
type OPR struct {
	// Object is the LOID of the object this state belongs to.
	Object loid.LOID
	// Class is the object's class name, kept denormalized so a Vault can
	// answer "what kinds of OPRs do you hold" without decoding payloads.
	Class string
	// Version increases with every save of the same object; a Vault keeps
	// only the newest version.
	Version uint64
	// SavedAt is when the state was captured.
	SavedAt time.Time
	// Payload is the object's state as its SaveState wrote it. Read it
	// through State, which checks the digest first.
	Payload []byte
	// Digest is the SHA-256 hash of Payload.
	Digest [sha256.Size]byte
}

// ErrCorrupt reports that an OPR's payload does not match its digest.
var ErrCorrupt = errors.New("opr: payload digest mismatch")

// New wraps a payload produced by an object's SaveState into an OPR
// saved at savedAt, the instant on the saving host's clock.
func New(object loid.LOID, version uint64, savedAt time.Time, payload []byte) (*OPR, error) {
	if object.IsNil() {
		return nil, errors.New("opr: nil object LOID")
	}
	return &OPR{
		Object:  object,
		Class:   object.Class,
		Version: version,
		SavedAt: savedAt,
		Payload: payload,
		Digest:  sha256.Sum256(payload),
	}, nil
}

// Verify checks the payload against the stored digest.
func (o *OPR) Verify() error {
	if sha256.Sum256(o.Payload) != o.Digest {
		return fmt.Errorf("%w (object %v)", ErrCorrupt, o.Object)
	}
	return nil
}

// State verifies integrity and returns the payload, which the caller
// must not modify.
func (o *OPR) State() ([]byte, error) {
	if err := o.Verify(); err != nil {
		return nil, err
	}
	return o.Payload, nil
}

// Clone returns a deep copy; Vaults hand out clones so callers cannot
// mutate stored state.
func (o *OPR) Clone() *OPR {
	c := *o
	c.Payload = append([]byte(nil), o.Payload...)
	return &c
}

// Size returns the payload size in bytes, used for Vault capacity
// accounting.
func (o *OPR) Size() int { return len(o.Payload) }
