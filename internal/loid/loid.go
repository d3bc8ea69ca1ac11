// Package loid implements Legion Object IDentifiers (LOIDs).
//
// Every object in a Legion metasystem — hosts, vaults, classes, instances,
// collections, enactors, schedulers — is named by a LOID. The paper treats
// LOIDs as opaque, location-independent names; the binding of a LOID to a
// communication endpoint is the job of the object runtime (package orb).
//
// This implementation gives LOIDs a small amount of structure, mirroring
// the real Legion system's hierarchical identifiers:
//
//	legion:<domain>/<class>/<instance>
//
// Domain identifies the administrative domain that created the object
// (site autonomy is a core Legion objective), class names the type
// ("Host", "Vault", "BasicClass", ...), and instance is a unique serial
// within (domain, class). The zero LOID is invalid and usable as a "no
// object" sentinel.
package loid

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// LOID is a Legion Object IDentifier. LOIDs are comparable and may be used
// as map keys. The zero value is the invalid "nil LOID".
type LOID struct {
	// Domain is the administrative domain that minted the identifier.
	Domain string
	// Class is the object's class name (e.g. "Host", "Vault").
	Class string
	// Instance is a serial number unique within (Domain, Class).
	Instance uint64
}

// Nil is the invalid zero LOID.
var Nil LOID

// IsNil reports whether l is the invalid zero LOID.
func (l LOID) IsNil() bool { return l == Nil }

// String renders the LOID in its canonical textual form,
// "legion:<domain>/<class>/<instance>". The nil LOID renders as
// "legion:nil".
func (l LOID) String() string {
	var buf [64]byte // longer LOIDs spill to the heap inside append
	return string(l.AppendText(buf[:0]))
}

// AppendText appends the canonical textual form, exactly as String
// renders it, to b and returns the extended slice. It allocates only
// when b lacks the room: reservation tokens are authenticated over this
// text several times per placement.
func (l LOID) AppendText(b []byte) []byte {
	if l.IsNil() {
		return append(b, "legion:nil"...)
	}
	b = append(b, "legion:"...)
	b = append(b, l.Domain...)
	b = append(b, '/')
	b = append(b, l.Class...)
	b = append(b, '/')
	return strconv.AppendUint(b, l.Instance, 10)
}

// Short returns an abbreviated human-readable form, "<class>/<instance>",
// used in logs and traces where the domain is clear from context.
func (l LOID) Short() string {
	if l.IsNil() {
		return "nil"
	}
	return fmt.Sprintf("%s/%d", l.Class, l.Instance)
}

// Less imposes a total order on LOIDs (domain, class, instance), useful for
// producing deterministic iteration orders in schedules and reports.
func (l LOID) Less(o LOID) bool {
	if l.Domain != o.Domain {
		return l.Domain < o.Domain
	}
	if l.Class != o.Class {
		return l.Class < o.Class
	}
	return l.Instance < o.Instance
}

// Parse parses the canonical textual form produced by String. It accepts
// "legion:nil" and returns the nil LOID for it.
func Parse(s string) (LOID, error) {
	const prefix = "legion:"
	if !strings.HasPrefix(s, prefix) {
		return Nil, fmt.Errorf("loid: %q lacks %q prefix", s, prefix)
	}
	rest := s[len(prefix):]
	if rest == "nil" {
		return Nil, nil
	}
	if strings.Count(rest, "/") != 2 {
		return Nil, fmt.Errorf("loid: %q: want domain/class/instance", s)
	}
	// Cut, not Split: the scheduler parses a vault list per host record,
	// and the parts need no slice of their own.
	domain, rest, _ := strings.Cut(rest, "/")
	class, instance, _ := strings.Cut(rest, "/")
	if domain == "" || class == "" {
		return Nil, fmt.Errorf("loid: %q: empty domain or class", s)
	}
	n, err := strconv.ParseUint(instance, 10, 64)
	if err != nil {
		return Nil, fmt.Errorf("loid: %q: bad instance: %v", s, err)
	}
	l := LOID{Domain: domain, Class: class, Instance: n}
	if l.IsNil() {
		return Nil, fmt.Errorf("loid: %q parses to the nil LOID", s)
	}
	return l, nil
}

// MustParse is Parse but panics on error; intended for tests and
// compile-time-constant-like identifiers.
func MustParse(s string) LOID {
	l, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return l
}

// Minter mints fresh LOIDs for a domain. It is safe for concurrent use.
// In the real Legion system LOIDs embed public keys and are minted by
// class objects; here a per-domain atomic serial suffices to guarantee
// uniqueness within one metasystem.
type Minter struct {
	domain string
	next   atomic.Uint64
}

// NewMinter returns a Minter that mints LOIDs in the given administrative
// domain. Instance numbers start at 1 so that the zero LOID is never
// minted.
func NewMinter(domain string) *Minter {
	if domain == "" {
		panic("loid: empty domain")
	}
	return &Minter{domain: domain}
}

// Domain returns the administrative domain this Minter mints for.
func (m *Minter) Domain() string { return m.domain }

// Mint returns a fresh LOID for the given class name.
func (m *Minter) Mint(class string) LOID {
	if class == "" {
		panic("loid: empty class")
	}
	return LOID{Domain: m.domain, Class: class, Instance: m.next.Add(1)}
}
