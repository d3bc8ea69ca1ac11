package sched

import (
	"math/bits"
	"testing"
	"testing/quick"

	"legion/internal/loid"
)

func l(class string, n uint64) loid.LOID {
	return loid.LOID{Domain: "uva", Class: class, Instance: n}
}

func mapping(c, h, v uint64) Mapping {
	return Mapping{Class: l("C", c), Host: l("Host", h), Vault: l("Vault", v)}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(10)
	if b.Any() || ones(b) != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	b.Set(0)
	b.Set(9)
	b.Set(64) // grows
	b.Set(130)
	if !b.Get(0) || !b.Get(9) || !b.Get(64) || !b.Get(130) {
		t.Error("set bits not readable")
	}
	if b.Get(1) || b.Get(131) || b.Get(-1) {
		t.Error("unset bits read as set")
	}
	if ones(b) != 4 {
		t.Errorf("%d bits set, want 4", ones(b))
	}
	got := b.Bits()
	want := []int{0, 9, 64, 130}
	if len(got) != len(want) {
		t.Fatalf("Bits = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bits = %v, want %v", got, want)
		}
	}
	if b.String() != "{0,9,64,130}" {
		t.Errorf("String = %s", b.String())
	}
}

func TestBitmapIntersectsContains(t *testing.T) {
	a := NewBitmap(8)
	a.Set(1)
	a.Set(3)
	c := NewBitmap(8)
	c.Set(3)
	if !a.Intersects(c) || !c.Intersects(a) {
		t.Error("Intersects false negative")
	}
	if !a.Contains(c) {
		t.Error("a should contain c")
	}
	if c.Contains(a) {
		t.Error("c should not contain a")
	}
	d := NewBitmap(200)
	d.Set(190)
	if a.Intersects(d) || d.Intersects(a) {
		t.Error("Intersects false positive across sizes")
	}
	if a.Contains(d) {
		t.Error("Contains false positive across sizes")
	}
	if !d.Contains(NewBitmap(0)) {
		t.Error("everything contains the empty bitmap")
	}
}

func TestBitmapProperty(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := NewBitmap(0)
		seen := map[int]bool{}
		for _, x := range idxs {
			i := int(x % 512)
			b.Set(i)
			seen[i] = true
		}
		if ones(b) != len(seen) {
			return false
		}
		for i := range seen {
			if !b.Get(i) {
				return false
			}
		}
		prev := -1
		for _, i := range b.Bits() {
			if i <= prev || !seen[i] {
				return false
			}
			prev = i
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitmapPanicsOnNegative(t *testing.T) {
	for _, f := range []func(){
		func() { NewBitmap(-1) },
		func() { b := NewBitmap(1); b.Set(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			f()
		}()
	}
}

func TestVariantAddReplacement(t *testing.T) {
	var v Variant
	v.AddReplacement(2, mapping(1, 5, 5))
	v.AddReplacement(0, mapping(2, 6, 6))
	if v.Covers.String() != "{0,2}" {
		t.Errorf("Covers = %v", v.Covers)
	}
	if len(v.Replacements) != 2 || v.Replacements[0].Index != 2 {
		t.Errorf("Replacements = %v", v.Replacements)
	}
}

func newMaster() Master {
	m := Master{Mappings: []Mapping{mapping(1, 1, 1), mapping(1, 2, 2), mapping(2, 3, 3)}}
	var v0, v1 Variant
	v0.AddReplacement(1, mapping(1, 4, 4))
	v1.AddReplacement(0, mapping(1, 5, 5))
	v1.AddReplacement(2, mapping(2, 6, 6))
	m.Variants = []Variant{v0, v1}
	return m
}

func TestMasterValidateOK(t *testing.T) {
	m := newMaster()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMasterValidateErrors(t *testing.T) {
	empty := Master{}
	if err := empty.Validate(); err == nil {
		t.Error("empty master validated")
	}

	nilLOID := Master{Mappings: []Mapping{{Class: l("C", 1), Host: loid.Nil, Vault: l("V", 1)}}}
	if err := nilLOID.Validate(); err == nil {
		t.Error("nil host LOID validated")
	}

	m := newMaster()
	m.Variants[0].Replacements[0].Index = 99
	if err := m.Validate(); err == nil {
		t.Error("out-of-range replacement validated")
	}

	m2 := newMaster()
	m2.Variants[0].Covers.Set(2) // bitmap disagrees with replacements
	if err := m2.Validate(); err == nil {
		t.Error("bitmap mismatch validated")
	}

	m3 := newMaster()
	var dup Variant
	dup.AddReplacement(0, mapping(1, 7, 7))
	dup.Replacements = append(dup.Replacements, Replacement{Index: 0, Mapping: mapping(1, 8, 8)})
	m3.Variants = append(m3.Variants, dup)
	if err := m3.Validate(); err == nil {
		t.Error("duplicate replacement validated")
	}

	m4 := newMaster()
	var badnil Variant
	badnil.AddReplacement(0, Mapping{Class: l("C", 1)})
	m4.Variants = append(m4.Variants, badnil)
	if err := m4.Validate(); err == nil {
		t.Error("variant nil LOID validated")
	}
}

func TestNextVariant(t *testing.T) {
	m := newMaster()
	failed := NewBitmap(3)
	failed.Set(1)
	if i := m.NextVariant(0, failed); i != 0 {
		t.Errorf("NextVariant for entry 1 = %d, want 0 (variant 0 covers {1})", i)
	}
	failed = NewBitmap(3)
	failed.Set(2)
	if i := m.NextVariant(0, failed); i != 1 {
		t.Errorf("NextVariant for entry 2 = %d, want 1", i)
	}
	if i := m.NextVariant(2, failed); i != -1 {
		t.Errorf("NextVariant from 2 = %d, want -1", i)
	}
	none := NewBitmap(3)
	if i := m.NextVariant(0, none); i != -1 {
		t.Errorf("NextVariant with empty failure set = %d, want -1", i)
	}
}

func TestRequestListValidate(t *testing.T) {
	r := RequestList{}
	if err := r.Validate(); err == nil {
		t.Error("empty request list validated")
	}
	r.Masters = []Master{newMaster()}
	if err := r.Validate(); err != nil {
		t.Error(err)
	}
	r.Masters = append(r.Masters, Master{})
	if err := r.Validate(); err == nil {
		t.Error("request list with empty master validated")
	}
}

func TestFailureReasonString(t *testing.T) {
	for r, want := range map[FailureReason]string{
		FailureNone:      "none",
		FailureResources: "unable to obtain resources",
		FailureMalformed: "malformed schedule",
		FailureOther:     "other failure",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", int(r), r.String())
		}
	}
}

func TestMappingString(t *testing.T) {
	s := mapping(1, 2, 3).String()
	if s != "C/1 -> (Host/2, Vault/3)" {
		t.Errorf("Mapping.String = %q", s)
	}
}

func TestBitmapGobEncodeDecode(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := NewBitmap(0)
		for _, x := range idxs {
			b.Set(int(x % 1024))
		}
		data, err := b.GobEncode()
		if err != nil {
			return false
		}
		var out Bitmap
		if err := out.GobDecode(data); err != nil {
			return false
		}
		if ones(out) != ones(b) {
			return false
		}
		for _, i := range b.Bits() {
			if !out.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	var b Bitmap
	if err := b.GobDecode([]byte{1, 2, 3}); err == nil {
		t.Error("odd-length payload accepted")
	}
}

func TestKofNValidate(t *testing.T) {
	hv := HostVault{Host: l("H", 1), Vault: l("V", 1)}
	cases := []struct {
		g  KofN
		ok bool
	}{
		{KofN{Class: l("C", 1), K: 1, Alternatives: []HostVault{hv}}, true},
		{KofN{K: 1, Alternatives: []HostVault{hv}}, false},                   // nil class
		{KofN{Class: l("C", 1), K: 0, Alternatives: []HostVault{hv}}, false}, // k < 1
		{KofN{Class: l("C", 1), K: 2, Alternatives: []HostVault{hv}}, false}, // k > n
		{KofN{Class: l("C", 1), K: 1, Alternatives: []HostVault{{}}}, false}, // nil alt
	}
	for i, c := range cases {
		err := c.g.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: err=%v ok=%v", i, err, c.ok)
		}
	}
	// Master.Validate covers KofN groups and allows mappings-free masters.
	m := Master{KofN: []KofN{{Class: l("C", 1), K: 1, Alternatives: []HostVault{hv}}}}
	if err := m.Validate(); err != nil {
		t.Errorf("k-of-n-only master: %v", err)
	}
}

// ones counts b's set bits.
func ones(b Bitmap) int {
	n := 0
	for i := 0; i < b.n; i++ {
		n += bits.OnesCount64(b.word(i))
	}
	return n
}
