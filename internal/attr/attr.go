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
// string, int64, float64, bool, or a list of values. A Host keeps its
// attributes in a Set; the Collection stores each resource record's
// attributes as the sorted pairs a Set's Snapshot returns — for a Host's
// own push, that very version, since a Snapshot is shared rather than
// copied and the Set never writes it again — and the query language
// (package query) evaluates expressions over either, referring to
// attributes as $name.
package attr

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
//
// A Value is 40 bytes: the string, one word that holds whichever of the
// int, the float's bits or the bool the kind calls for, a pointer to a
// list's elements, and the kind in a byte. A Pair is 56. A fleet holds
// every host's attributes once, one version that the Host's Set and its
// Collection record share, and these bytes are most of what a host
// costs.
type Value struct {
	s    string   // KindString
	w    uint64   // KindInt, KindFloat (math.Float64bits), KindBool (0 or 1)
	l    *[]Value // KindList; the elements are never written after construction
	kind uint8    // a Kind
}

// String constructs a string Value.
func String(s string) Value { return Value{kind: uint8(KindString), s: s} }

// Int constructs an integer Value.
func Int(i int64) Value { return Value{kind: uint8(KindInt), w: uint64(i)} }

// Float constructs a floating-point Value.
func Float(f float64) Value { return Value{kind: uint8(KindFloat), w: math.Float64bits(f)} }

// Bool constructs a boolean Value.
func Bool(b bool) Value {
	v := Value{kind: uint8(KindBool)}
	if b {
		v.w = 1
	}
	return v
}

// List constructs a list Value from the given elements. The slice is
// copied.
func List(elems ...Value) Value {
	l := make([]Value, len(elems))
	copy(l, elems)
	return Value{kind: uint8(KindList), l: &l}
}

// Strings constructs a list Value of strings; a convenience for common
// attributes such as the list of compatible vaults or accepted domains.
func Strings(ss ...string) Value {
	l := make([]Value, len(ss))
	for i, s := range ss {
		l[i] = String(s)
	}
	return Value{kind: uint8(KindList), l: &l}
}

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return Kind(v.kind) }

// IsValid reports whether the value holds any type at all.
func (v Value) IsValid() bool { return v.kind != uint8(KindInvalid) }

// Str returns the string payload; it is "" for every other kind.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload; it is 0 for every other kind.
func (v Value) IntVal() int64 {
	if v.Kind() != KindInt {
		return 0
	}
	return int64(v.w)
}

// FloatVal returns the float payload; it is 0 for every other kind.
func (v Value) FloatVal() float64 {
	if v.Kind() != KindFloat {
		return 0
	}
	return math.Float64frombits(v.w)
}

// BoolVal returns the bool payload; it is false for every other kind.
func (v Value) BoolVal() bool { return v.Kind() == KindBool && v.w != 0 }

// list returns the list payload without copying it; nil for every other
// kind.
func (v Value) list() []Value {
	if v.l == nil {
		return nil
	}
	return *v.l
}

// ListVal returns a copy of the list payload; it is empty for every
// other kind.
func (v Value) ListVal() []Value {
	l := v.list()
	out := make([]Value, len(l))
	copy(out, l)
	return out
}

// Len returns the list length for KindList and 0 otherwise.
func (v Value) Len() int { return len(v.list()) }

// At returns the i'th list element. It panics if v is not a list or the
// index is out of range, matching slice semantics.
func (v Value) At(i int) Value {
	if v.Kind() != KindList {
		panic("attr: At on non-list value")
	}
	return v.list()[i]
}

// AsFloat coerces numeric values to float64: ints widen, floats pass
// through. ok is false for every other kind. This is the numeric-
// comparison coercion used by the query evaluator.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.Kind() {
	case KindInt:
		return float64(int64(v.w)), true
	case KindFloat:
		return math.Float64frombits(v.w), true
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
	switch v.Kind() {
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.w == o.w
	case KindList:
		vl, ol := v.list(), o.list()
		if len(vl) != len(ol) {
			return false
		}
		for i := range vl {
			if !vl[i].Equal(ol[i]) {
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
	switch v.Kind() {
	case KindString:
		return fmt.Sprintf("%q", v.s)
	case KindInt:
		return fmt.Sprintf("%d", int64(v.w))
	case KindFloat:
		return fmt.Sprintf("%g", v.FloatVal())
	case KindBool:
		return fmt.Sprintf("%t", v.BoolVal())
	case KindList:
		l := v.list()
		parts := make([]string, len(l))
		for i, e := range l {
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

// Set is a mutable attribute database: its pairs, sorted by name, one
// per name. It is safe for concurrent use. The zero Set must not be used;
// call NewSet.
//
// The pairs are copy-on-share. Snapshot hands out the current version
// itself and marks it shared; the Set never writes a shared version
// again, so the next write first copies it into a new one at its exact
// length. A Set whose version nobody holds writes in place.
type Set struct {
	mu     sync.RWMutex
	pairs  []Pair
	shared atomic.Bool // pairs has been handed out by Snapshot
}

// NewSet returns an attribute Set holding the given pairs (later pairs
// overwrite earlier ones of the same name). Its storage is allocated at
// len(pairs), so a caller that passes every attribute up front gets a
// set at its final length.
func NewSet(pairs ...Pair) *Set {
	s := &Set{pairs: make([]Pair, 0, len(pairs))}
	for _, p := range pairs {
		s.put(p)
	}
	return s
}

// put overwrites the pair of p's name in place, or inserts p at its
// sorted position. The caller holds the write lock and has made the
// version its own (own).
func (s *Set) put(p Pair) {
	i, ok := search(s.pairs, p.Name)
	if ok {
		s.pairs[i].Value = p.Value
		return
	}
	s.pairs = slices.Insert(s.pairs, i, p)
}

// own readies the version for writing pairs into it: a shared version is
// copied into a new one with room for exactly the names of pairs it
// lacks. The caller holds the write lock.
func (s *Set) own(pairs []Pair) {
	if !s.shared.Load() {
		return
	}
	n := len(s.pairs)
	for i, p := range pairs {
		if _, ok := search(s.pairs, p.Name); !ok && !slices.ContainsFunc(pairs[:i], func(q Pair) bool { return q.Name == p.Name }) {
			n++
		}
	}
	s.pairs = append(make([]Pair, 0, n), s.pairs...)
	s.shared.Store(false)
}

// Get returns the named attribute and whether it is present.
func (s *Set) Get(name string) (Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Lookup(s.pairs, name)
}

// Set stores an attribute, overwriting any previous value of that name.
func (s *Set) Set(name string, v Value) {
	s.Merge([]Pair{{Name: name, Value: v}})
}

// Delete removes the named attribute if present.
func (s *Set) Delete(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := search(s.pairs, name)
	if !ok {
		return
	}
	if s.shared.Load() {
		s.pairs = append(append(make([]Pair, 0, len(s.pairs)-1), s.pairs[:i]...), s.pairs[i+1:]...)
		s.shared.Store(false)
		return
	}
	s.pairs = slices.Delete(s.pairs, i, i+1)
}

// Len returns the number of attributes in the set.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pairs)
}

// Merge overwrites attributes in s with every pair in the given list. It
// is the update operation Hosts use when repopulating their attributes and
// Collections use for UpdateCollectionEntry.
func (s *Set) Merge(pairs []Pair) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.own(pairs)
	for _, p := range pairs {
		s.put(p)
	}
}

// Snapshot returns the current version of the attributes, sorted by name
// and clipped to its length, without copying it. The caller must not
// write to it: it is shared with the Set, and with anyone else who took
// it, until the Set's next write installs a new version. Snapshots are
// what Hosts push to Collections, which keep them as the record, and what
// query evaluation runs over. A caller that wants a slice of its own
// clones one.
func (s *Set) Snapshot() []Pair {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.shared.Store(true)
	return slices.Clip(s.pairs)
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Set{pairs: slices.Clone(s.pairs)}
}

// Lookup adapts the Set to the query evaluator's attribute-resolution
// interface: it returns the value bound to $name.
func (s *Set) Lookup(name string) (Value, bool) { return s.Get(name) }

// Lookup finds name in pairs, which must be sorted by name (a Snapshot,
// a Set's own pairs, or the attributes of a Collection record): a binary
// search, no map. A record is some twenty contiguous pairs, so the five
// or so string compares this costs are cheaper than hashing the name
// once — and a reader gets to use the slice the store already holds.
func Lookup(pairs []Pair, name string) (Value, bool) {
	if i, ok := search(pairs, name); ok {
		return pairs[i].Value, true
	}
	return Value{}, false
}

// search returns the position of name in pairs sorted by name, or the
// position it would be inserted at, and whether it is there.
func search(pairs []Pair, name string) (int, bool) {
	lo, hi := 0, len(pairs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pairs[mid].Name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(pairs) && pairs[lo].Name == name
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
