// Package attr implements the extensible attribute databases carried by
// all Legion objects.
//
// The paper (§3.1): "All Legion objects include an extensible attribute
// database, the contents of which are determined by the type of the
// object. Host objects populate their attributes with information
// describing their current state, including architecture, operating
// system, load, available memory, etc."
//
// Attributes are (name, value) pairs. Values are dynamically typed:
// string, int64, float64, bool, or a list of values. The Collection stores
// one attribute Set per resource record, and the query language (package
// query) evaluates expressions over a Set, referring to attributes as
// $name.
package attr

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Kind enumerates the dynamic types an attribute Value can hold.
type Kind int

// The attribute value kinds.
const (
	KindInvalid Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindList
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindList:
		return "list"
	default:
		return "invalid"
	}
}

// Value is a dynamically typed attribute value. The zero Value is invalid.
// Values are immutable once constructed.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
	l    []Value
}

// String constructs a string Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int constructs an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float constructs a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool constructs a boolean Value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// List constructs a list Value from the given elements. The slice is
// copied.
func List(elems ...Value) Value {
	l := make([]Value, len(elems))
	copy(l, elems)
	return Value{kind: KindList, l: l}
}

// Strings constructs a list Value of strings; a convenience for common
// attributes such as the list of compatible vaults or accepted domains.
func Strings(ss ...string) Value {
	l := make([]Value, len(ss))
	for i, s := range ss {
		l[i] = String(s)
	}
	return Value{kind: KindList, l: l}
}

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value holds any type at all.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// Str returns the string payload; it is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload; it is only meaningful for KindInt.
func (v Value) IntVal() int64 { return v.i }

// FloatVal returns the float payload; it is only meaningful for KindFloat.
func (v Value) FloatVal() float64 { return v.f }

// BoolVal returns the bool payload; it is only meaningful for KindBool.
func (v Value) BoolVal() bool { return v.b }

// ListVal returns a copy of the list payload; it is only meaningful for
// KindList.
func (v Value) ListVal() []Value {
	out := make([]Value, len(v.l))
	copy(out, v.l)
	return out
}

// Len returns the list length for KindList and 0 otherwise.
func (v Value) Len() int { return len(v.l) }

// At returns the i'th list element. It panics if v is not a list or the
// index is out of range, matching slice semantics.
func (v Value) At(i int) Value {
	if v.kind != KindList {
		panic("attr: At on non-list value")
	}
	return v.l[i]
}

// AsFloat coerces numeric values to float64: ints widen, floats pass
// through. ok is false for every other kind. This is the numeric-
// comparison coercion used by the query evaluator.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// Equal reports deep semantic equality. Numeric values compare across
// int/float kinds (Int(3) equals Float(3.0)), mirroring the query
// language's comparison semantics.
func (v Value) Equal(o Value) bool {
	if vf, ok := v.AsFloat(); ok {
		of, ook := o.AsFloat()
		return ook && vf == of
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.b == o.b
	case KindList:
		if len(v.l) != len(o.l) {
			return false
		}
		for i := range v.l {
			if !v.l[i].Equal(o.l[i]) {
				return false
			}
		}
		return true
	default:
		return v.kind == o.kind
	}
}

// String renders the value for traces and error messages. Strings are
// quoted; lists are bracketed.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return fmt.Sprintf("%q", v.s)
	case KindInt:
		return fmt.Sprintf("%d", v.i)
	case KindFloat:
		return fmt.Sprintf("%g", v.f)
	case KindBool:
		return fmt.Sprintf("%t", v.b)
	case KindList:
		parts := make([]string, len(v.l))
		for i, e := range v.l {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return "<invalid>"
	}
}

// Pair is a single (name, value) attribute, the unit the paper's
// Collection interface traffics in (LinkedList<Uval_ObjAttribute>).
type Pair struct {
	Name  string
	Value Value
}

// Set is a mutable attribute database. It is safe for concurrent use.
// The zero Set must not be used; call NewSet.
type Set struct {
	mu sync.RWMutex
	m  map[string]Value
}

// NewSet returns an empty attribute Set, optionally populated with the
// given pairs (later pairs overwrite earlier ones of the same name).
func NewSet(pairs ...Pair) *Set {
	s := &Set{m: make(map[string]Value, len(pairs))}
	for _, p := range pairs {
		s.m[p.Name] = p.Value
	}
	return s
}

// Get returns the named attribute and whether it is present.
func (s *Set) Get(name string) (Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[name]
	return v, ok
}

// Set stores an attribute, overwriting any previous value of that name.
func (s *Set) Set(name string, v Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[name] = v
}

// Delete removes the named attribute if present.
func (s *Set) Delete(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, name)
}

// Len returns the number of attributes in the set.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Merge overwrites attributes in s with every pair in the given list. It
// is the update operation Hosts use when repopulating their attributes and
// Collections use for UpdateCollectionEntry.
func (s *Set) Merge(pairs []Pair) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range pairs {
		s.m[p.Name] = p.Value
	}
}

// Snapshot returns the attributes as a sorted, immutable slice of pairs.
// Snapshots are what Hosts push to Collections and what query evaluation
// runs over; sorting makes downstream iteration deterministic.
func (s *Set) Snapshot() []Pair {
	s.mu.RLock()
	pairs := make([]Pair, 0, len(s.m))
	for k, v := range s.m {
		pairs = append(pairs, Pair{Name: k, Value: v})
	}
	s.mu.RUnlock()
	slices.SortFunc(pairs, func(a, b Pair) int { return strings.Compare(a.Name, b.Name) })
	return pairs
}

// Clone returns an independent deep copy of the set.
func (s *Set) Clone() *Set {
	return NewSet(s.Snapshot()...)
}

// Lookup adapts the Set to the query evaluator's attribute-resolution
// interface: it returns the value bound to $name.
func (s *Set) Lookup(name string) (Value, bool) { return s.Get(name) }

// Lookup finds name in pairs, which must be sorted by name (a Snapshot,
// or the attributes of a Collection record): a binary search, no map. A
// record is some twenty contiguous pairs, so the five or so string
// compares this costs are cheaper than hashing the name once — and a
// reader gets to use the slice the store already holds.
func Lookup(pairs []Pair, name string) (Value, bool) {
	lo, hi := 0, len(pairs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pairs[mid].Name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(pairs) && pairs[lo].Name == name {
		return pairs[lo].Value, true
	}
	return Value{}, false
}

// FromPairs builds a read-only lookup map from a snapshot, for evaluating
// queries over records that are no longer backed by a live Set.
func FromPairs(pairs []Pair) map[string]Value {
	m := make(map[string]Value, len(pairs))
	for _, p := range pairs {
		m[p.Name] = p.Value
	}
	return m
}
