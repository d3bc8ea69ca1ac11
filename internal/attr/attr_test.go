package attr

import (
	"bytes"
	"encoding/gob"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"legion/internal/wire"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if v := String("x"); v.Kind() != KindString || v.Str() != "x" {
		t.Errorf("String: %v", v)
	}
	if v := Int(7); v.Kind() != KindInt || v.IntVal() != 7 {
		t.Errorf("Int: %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.FloatVal() != 2.5 {
		t.Errorf("Float: %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.BoolVal() {
		t.Errorf("Bool: %v", v)
	}
	l := List(Int(1), String("a"))
	if l.Kind() != KindList || l.Len() != 2 || l.At(1).Str() != "a" {
		t.Errorf("List: %v", l)
	}
	var zero Value
	if zero.IsValid() {
		t.Error("zero Value should be invalid")
	}
}

func TestStringsHelper(t *testing.T) {
	v := Strings("a", "b")
	if v.Len() != 2 || v.At(0).Str() != "a" || v.At(1).Str() != "b" {
		t.Errorf("Strings: %v", v)
	}
}

func TestListImmutability(t *testing.T) {
	src := []Value{Int(1), Int(2)}
	v := List(src...)
	src[0] = Int(99)
	if v.At(0).IntVal() != 1 {
		t.Error("List aliases caller slice")
	}
	got := v.ListVal()
	got[1] = Int(99)
	if v.At(1).IntVal() != 2 {
		t.Error("ListVal aliases internal slice")
	}
}

func TestAsFloat(t *testing.T) {
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Errorf("Int.AsFloat = %v, %v", f, ok)
	}
	if f, ok := Float(1.5).AsFloat(); !ok || f != 1.5 {
		t.Errorf("Float.AsFloat = %v, %v", f, ok)
	}
	if _, ok := String("3").AsFloat(); ok {
		t.Error("String.AsFloat should fail")
	}
	if _, ok := Bool(true).AsFloat(); ok {
		t.Error("Bool.AsFloat should fail")
	}
}

func TestEqualCrossNumeric(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) || !Float(3.0).Equal(Int(3)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if Int(3).Equal(String("3")) {
		t.Error("Int(3) should not equal String(\"3\")")
	}
}

func TestEqualLists(t *testing.T) {
	a := List(Int(1), String("x"))
	b := List(Float(1), String("x"))
	if !a.Equal(b) {
		t.Error("lists with numerically equal elements should be equal")
	}
	if a.Equal(List(Int(1))) {
		t.Error("different-length lists equal")
	}
	if a.Equal(List(Int(1), String("y"))) {
		t.Error("different lists equal")
	}
}

func TestEqualProperty(t *testing.T) {
	// Equal is reflexive and symmetric for generated scalars.
	f := func(s string, i int64, fl float64, b bool) bool {
		vals := []Value{String(s), Int(i), Float(fl), Bool(b)}
		for _, v := range vals {
			if fl != fl { // skip NaN: NaN != NaN by design
				continue
			}
			if !v.Equal(v) {
				return false
			}
			for _, w := range vals {
				if v.Equal(w) != w.Equal(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		`"hi"`:      String("hi"),
		"42":        Int(42),
		"2.5":       Float(2.5),
		"true":      Bool(true),
		`[1, "a"]`:  List(Int(1), String("a")),
		"<invalid>": {},
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestSetBasicOps(t *testing.T) {
	s := NewSet(Pair{"a", Int(1)}, Pair{"b", String("x")})
	if n := len(s.Snapshot()); n != 2 {
		t.Fatalf("%d pairs, want 2", n)
	}
	if v, ok := s.Get("a"); !ok || v.IntVal() != 1 {
		t.Errorf("Get(a) = %v, %v", v, ok)
	}
	s.Set("a", Int(2))
	if v, _ := s.Get("a"); v.IntVal() != 2 {
		t.Errorf("after Set, Get(a) = %v", v)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get(missing) reported present")
	}
}

func TestSetMergeAndSnapshot(t *testing.T) {
	s := NewSet(Pair{"z", Int(1)}, Pair{"a", Int(2)})
	s.Merge([]Pair{{"m", Int(3)}, {"z", Int(9)}})
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	// Snapshot is sorted by name.
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Errorf("snapshot not sorted: %v", snap)
		}
	}
	m := FromPairs(snap)
	if m["z"].IntVal() != 9 || m["m"].IntVal() != 3 {
		t.Errorf("merge result wrong: %v", snap)
	}
}

// TestSetWritesInPlaceUntilShared: a Set whose version nobody holds
// overwrites in place and allocates nothing, as a Vault's
// vault_used_bytes writes do. Once Snapshot has handed its version out,
// the next write builds exactly one new version, and the snapshot keeps
// the values it had.
func TestSetWritesInPlaceUntilShared(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	s := NewSet(Pair{"a", Int(1)}, Pair{"b", Int(2)})
	if allocs := testing.AllocsPerRun(100, func() { s.Set("b", Int(3)) }); allocs != 0 {
		t.Errorf("Set on an unshared set: %.1f allocs/op, want 0", allocs)
	}
	write := func() {
		s.Snapshot()
		s.Merge([]Pair{{"a", Int(5)}, {"b", Int(6)}})
	}
	if allocs := testing.AllocsPerRun(100, write); allocs != 1 {
		t.Errorf("Merge after a Snapshot: %.1f allocs/op, want 1 (the new version)", allocs)
	}
	snap := s.Snapshot()
	s.Set("b", Int(7))
	if got := snap[1].Value.IntVal(); got != 6 {
		t.Errorf("the snapshot's b reads %d after the write, want 6", got)
	}
}

func TestSetLookupAdapter(t *testing.T) {
	s := NewSet(Pair{"a", Int(1)})
	if v, ok := s.Lookup("a"); !ok || v.IntVal() != 1 {
		t.Errorf("Lookup = %v, %v", v, ok)
	}
}

func TestSetConcurrent(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Set("k", Int(int64(i)))
				s.Get("k")
				// Read the version outside the lock, as a Collection
				// record does, while the others write.
				for _, p := range s.Snapshot() {
					_ = p.Value.IntVal()
				}
				s.Merge([]Pair{{"m", Int(int64(g))}})
			}
		}(g)
	}
	wg.Wait()
	if _, ok := s.Get("k"); !ok {
		t.Error("k missing after concurrent writes")
	}
}

func TestAtPanicsOnNonList(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	Int(1).At(0)
}

func TestLookupSortedPairs(t *testing.T) {
	pairs := NewSet(
		Pair{Name: "host_load", Value: Float(0.5)},
		Pair{Name: "host_arch", Value: String("x86")},
		Pair{Name: "host_zone", Value: String("z1")},
		Pair{Name: "host_cpus", Value: Int(8)},
	).Snapshot()
	for _, p := range pairs { // first, last and middle
		if v, ok := Lookup(pairs, p.Name); !ok || !v.Equal(p.Value) {
			t.Errorf("Lookup(%q) = %v, %v", p.Name, v, ok)
		}
	}
	for _, name := range []string{"", "a", "host_b", "host_load_history", "z"} { // before, between, after
		if v, ok := Lookup(pairs, name); ok || v.IsValid() {
			t.Errorf("Lookup(%q) = %v, %v on a set without it", name, v, ok)
		}
	}
	if _, ok := Lookup(nil, "host_arch"); ok {
		t.Error("Lookup found a name in no pairs")
	}
}

// edgeValues are the payloads a packed Value could lose: a sign bit, a
// NaN's bits, an extreme int, the bool that is all zeros, and lists that
// are empty or nested.
func edgeValues() map[string]Value {
	return map[string]Value{
		"-0":        Float(math.Copysign(0, -1)),
		"NaN":       Float(math.NaN()),
		"+Inf":      Float(math.Inf(1)),
		"-Inf":      Float(math.Inf(-1)),
		"MinInt64":  Int(math.MinInt64),
		"false":     Bool(false),
		"empty":     List(),
		"nested":    List(List(), List(Int(1), List(String("x"), Bool(false))), Float(math.Copysign(0, -1))),
		"emptyStr":  String(""),
		"MaxInt64":  Int(math.MaxInt64),
		"true":      Bool(true),
		"listOfNaN": List(Float(math.NaN())),
	}
}

// sameValue reports whether a and b are the same value bit for bit —
// stricter than Equal, which holds NaN unequal to itself, -0 equal to 0
// and an Int equal to a Float.
func sameValue(a, b Value) bool {
	return a.Kind() == b.Kind() && bytes.Equal(a.AppendWire(nil), b.AppendWire(nil))
}

// gobSame is sameValue for the gob hook, which sends no field that is
// zero: -0 == 0, so Float(-0) comes back as Float(0). It holds when the
// kinds match and every float is equal or both are NaN.
func gobSame(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case KindFloat:
		fa, fb := a.FloatVal(), b.FloatVal()
		return fa == fb || math.IsNaN(fa) && math.IsNaN(fb)
	case KindList:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !gobSame(a.At(i), b.At(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

func TestValueEdgeCasesRoundTrip(t *testing.T) {
	for name, in := range edgeValues() {
		r := wire.NewReader(in.AppendWire(nil))
		var out Value
		out.DecodeWire(&r)
		if r.Err != nil || len(r.B) != 0 || !sameValue(in, out) {
			t.Errorf("%s: wire round trip %v -> %v (err %v, %d bytes left)", name, in, out, r.Err, len(r.B))
		}

		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(in); err != nil {
			t.Fatalf("%s: gob encode: %v", name, err)
		}
		out = Value{}
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("%s: gob decode: %v", name, err)
		}
		if !gobSame(in, out) {
			t.Errorf("%s: gob round trip %v -> %v", name, in, out)
		}
	}
	if f := Float(math.Copysign(0, -1)).FloatVal(); !math.Signbit(f) {
		t.Error("Float(-0) lost its sign")
	}
	if f := Float(math.NaN()).FloatVal(); !math.IsNaN(f) {
		t.Errorf("Float(NaN) reads %v", f)
	}
	if i := Int(math.MinInt64).IntVal(); i != math.MinInt64 {
		t.Errorf("Int(MinInt64) reads %d", i)
	}
}

func TestValueKindsStayApart(t *testing.T) {
	if Bool(false).Equal(Int(0)) || Int(0).Equal(Bool(false)) {
		t.Error("Bool(false) equals Int(0)")
	}
	if Bool(true).Equal(Int(1)) || Bool(false).Equal(Float(0)) {
		t.Error("a Bool equals a number")
	}
	if !Float(math.Copysign(0, -1)).Equal(Int(0)) {
		t.Error("Float(-0) should equal Int(0), as -0 == 0")
	}
	if Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Error("NaN equals itself")
	}
	if List().Equal(String("")) || List(Int(0)).Equal(List(Bool(false))) {
		t.Error("values of different kinds compare equal")
	}
	if !List(List(), Int(1)).Equal(List(List(), Float(1))) {
		t.Error("nested lists with numerically equal elements should be equal")
	}
}

func TestWrongKindAccessorsReturnZero(t *testing.T) {
	for name, v := range edgeValues() {
		if v.Kind() != KindInt && v.IntVal() != 0 {
			t.Errorf("%s: IntVal = %d on a %s", name, v.IntVal(), v.Kind())
		}
		if v.Kind() != KindFloat && v.FloatVal() != 0 {
			t.Errorf("%s: FloatVal = %v on a %s", name, v.FloatVal(), v.Kind())
		}
		if v.Kind() != KindBool && v.BoolVal() {
			t.Errorf("%s: BoolVal = true on a %s", name, v.Kind())
		}
		if v.Kind() != KindString && v.Str() != "" {
			t.Errorf("%s: Str = %q on a %s", name, v.Str(), v.Kind())
		}
		if v.Kind() != KindList && (v.Len() != 0 || len(v.ListVal()) != 0) {
			t.Errorf("%s: Len = %d on a %s", name, v.Len(), v.Kind())
		}
	}
	var zero Value
	if zero.IntVal() != 0 || zero.FloatVal() != 0 || zero.BoolVal() || zero.Str() != "" || zero.Len() != 0 {
		t.Error("the zero Value has a payload")
	}
}
