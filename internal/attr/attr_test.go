package attr

import (
	"sync"
	"testing"
	"testing/quick"
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
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if v, ok := s.Get("a"); !ok || v.IntVal() != 1 {
		t.Errorf("Get(a) = %v, %v", v, ok)
	}
	s.Set("a", Int(2))
	if v, _ := s.Get("a"); v.IntVal() != 2 {
		t.Errorf("after Set, Get(a) = %v", v)
	}
	s.Delete("b")
	if _, ok := s.Get("b"); ok {
		t.Error("Delete failed")
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

func TestSetClone(t *testing.T) {
	s := NewSet(Pair{"a", Int(1)})
	c := s.Clone()
	s.Set("a", Int(2))
	if v, _ := c.Get("a"); v.IntVal() != 1 {
		t.Error("clone not independent")
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
				s.Snapshot()
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
