// Package reservation implements Legion reservations (paper §3.1).
//
// "To support scheduling, Hosts grant reservations for future service.
// The exact form of the reservation depends upon the Host Object
// implementation, but they must be non-forgeable tokens; the Host Object
// must recognize these tokens when they are passed in with service
// requests. It is not necessary for any other object in the system to be
// able to decode the reservation token."
//
// Tokens here are HMAC-SHA256-signed by the issuing Host's secret key:
// any object can carry and present a token, only the issuing Host can
// mint or validate one, and tampering with any field invalidates the MAC.
// Our tokens encode both the Host and the Vault used for execution, as
// the paper's implementation does.
//
// Reservations have a start time, a duration, and an optional timeout
// period (how long the recipient has to confirm an instantaneous
// reservation), plus two type bits — share and reuse — yielding the four
// reservation classes of Table 2:
//
//	one-shot space sharing   (share=0, reuse=0)
//	reusable space sharing   (share=0, reuse=1)   "machine is mine"
//	one-shot timesharing     (share=1, reuse=0)   typical batch job
//	reusable timesharing     (share=1, reuse=1)
package reservation

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"time"

	"legion/internal/loid"
)

// Type is the two type bits of a Legion reservation (Table 2).
type Type struct {
	// Share: if false the reservation allocates the entire resource
	// (space sharing); if true the resource may be multiplexed among
	// concurrent reservations (timesharing).
	Share bool
	// Reuse: if true the token may be presented with multiple
	// StartObject calls; if false it is consumed by the first.
	Reuse bool
}

// The four reservation types of Table 2.
var (
	OneShotSpaceSharing  = Type{Share: false, Reuse: false}
	ReusableSpaceSharing = Type{Share: false, Reuse: true}
	OneShotTimesharing   = Type{Share: true, Reuse: false}
	ReusableTimesharing  = Type{Share: true, Reuse: true}
)

// String names the type as in Table 2.
func (t Type) String() string {
	switch t {
	case OneShotSpaceSharing:
		return "one-shot space sharing"
	case ReusableSpaceSharing:
		return "reusable space sharing"
	case OneShotTimesharing:
		return "one-shot timesharing"
	default:
		return "reusable timesharing"
	}
}

// Token is a non-forgeable reservation token.
type Token struct {
	// ID is unique per issuing host.
	ID uint64
	// Host is the issuing Host object; Vault is the storage partner the
	// reservation was validated against.
	Host  loid.LOID
	Vault loid.LOID
	// Type is the reservation's share/reuse classification.
	Type Type
	// Start and Duration delimit the reserved service interval.
	Start    time.Time
	Duration time.Duration
	// Timeout is how long the recipient has to confirm an instantaneous
	// reservation (zero = no confirmation deadline). Confirmation is
	// implicit when the token is presented with StartObject.
	Timeout time.Duration
	// MAC authenticates all the above fields under the issuing host's
	// secret key.
	MAC []byte
}

// End returns the end of the reserved interval.
func (t *Token) End() time.Time { return t.Start.Add(t.Duration) }

// Overlaps reports whether the token's interval intersects [start, end).
func (t *Token) Overlaps(start, end time.Time) bool {
	return t.Start.Before(end) && start.Before(t.End())
}

// Signer mints and validates tokens for one Host. The key never leaves
// the host; other objects treat tokens as opaque.
//
// A Signer is its key and nothing else. There is one per Host, so
// anything cached beside the key — a keyed hash state, say — is paid
// ten thousand times over by a metasystem that size whether or not its
// Hosts ever grant a reservation.
type Signer struct {
	// key is the HMAC key in the form RFC 2104 starts from: hashed when
	// longer than one SHA-256 block, then zero-padded to exactly one.
	key [sha256.BlockSize]byte
}

// NewSigner creates a Signer with a fresh random 32-byte key.
func NewSigner() *Signer {
	s := new(Signer)
	if _, err := rand.Read(s.key[:32]); err != nil {
		panic("reservation: cannot read entropy: " + err.Error())
	}
	return s
}

// mac computes HMAC-SHA256 over every authenticated token field:
//
//	ID ‖ host text ‖ 0 ‖ vault text ‖ 0 ‖ type bits ‖ start ‖ duration ‖ timeout
//
// with the integers as 8 big-endian bytes. A placement signs or checks
// about six tokens, so this is RFC 2104 written as two one-shot hashes,
// H((key ⊕ opad) ‖ H((key ⊕ ipad) ‖ message)), each over a buffer on the
// stack: no hash state, no string, nothing on the heap unless the LOID
// texts are unusually long, in which case append moves the buffer there.
func (s *Signer) mac(t *Token) [sha256.Size]byte {
	var inner [256]byte
	b := inner[:sha256.BlockSize]
	for i, k := range s.key {
		b[i] = k ^ 0x36
	}
	b = binary.BigEndian.AppendUint64(b, t.ID)
	b = append(t.Host.AppendText(b), 0)
	b = append(t.Vault.AppendText(b), 0)
	var bits uint64
	if t.Type.Share {
		bits |= 1
	}
	if t.Type.Reuse {
		bits |= 2
	}
	b = binary.BigEndian.AppendUint64(b, bits)
	b = binary.BigEndian.AppendUint64(b, uint64(t.Start.UnixNano()))
	b = binary.BigEndian.AppendUint64(b, uint64(t.Duration))
	b = binary.BigEndian.AppendUint64(b, uint64(t.Timeout))
	sum := sha256.Sum256(b)

	var outer [sha256.BlockSize + sha256.Size]byte
	for i, k := range s.key {
		outer[i] = k ^ 0x5c
	}
	copy(outer[sha256.BlockSize:], sum[:])
	return sha256.Sum256(outer[:])
}

// Sign sets the token's MAC.
func (s *Signer) Sign(t *Token) {
	mac := s.mac(t)
	t.MAC = mac[:]
}

// Valid reports whether the token's MAC is genuine under this signer's
// key. Any field mutation or forgery attempt fails.
func (s *Signer) Valid(t *Token) bool {
	mac := s.mac(t)
	return hmac.Equal(t.MAC, mac[:])
}
