package loid

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestStringParseRoundTrip(t *testing.T) {
	cases := []LOID{
		{Domain: "uva", Class: "Host", Instance: 1},
		{Domain: "sdsc", Class: "Vault", Instance: 42},
		{Domain: "a.b.c", Class: "BasicClass", Instance: 1 << 60},
	}
	for _, want := range cases {
		got, err := Parse(want.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", want.String(), err)
		}
		if got != want {
			t.Errorf("round trip: got %v want %v", got, want)
		}
	}
}

func TestParseNil(t *testing.T) {
	got, err := Parse("legion:nil")
	if err != nil || !got.IsNil() {
		t.Errorf("Parse(legion:nil) = %v, %v; want nil LOID", got, err)
	}
	if Nil.String() != "legion:nil" {
		t.Errorf("Nil.String() = %q", Nil.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"host/1",
		"legion:",
		"legion:uva/Host",
		"legion:uva/Host/1/2",
		"legion:/Host/1",
		"legion:uva//1",
		"legion:uva/Host/notanumber",
		"legion:uva/Host/-1",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error, got nil", s)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(dom, class string, inst uint64) bool {
		// Constrain to the character set LOIDs are minted with.
		if dom == "" || class == "" || inst == 0 {
			return true
		}
		for _, r := range dom + class {
			if r == '/' || r == '\n' || r < ' ' {
				return true
			}
		}
		l := LOID{Domain: dom, Class: class, Instance: inst}
		got, err := Parse(l.String())
		return err == nil && got == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sprintfForm is how String rendered a LOID before it was built on
// AppendText; token MACs are computed over this text, so it may not move.
func sprintfForm(l LOID) string {
	if l.IsNil() {
		return "legion:nil"
	}
	return fmt.Sprintf("legion:%s/%s/%d", l.Domain, l.Class, l.Instance)
}

func TestStringMatchesSprintfForm(t *testing.T) {
	check := func(l LOID) bool {
		s := l.String()
		if s != sprintfForm(l) {
			t.Errorf("String() = %q, want %q", s, sprintfForm(l))
			return false
		}
		// AppendText extends what it is given and is the same text.
		if got := string(l.AppendText([]byte("x"))); got != "x"+s {
			t.Errorf("AppendText onto %q = %q, want %q", "x", got, "x"+s)
			return false
		}
		return true
	}
	long := strings.Repeat("d", 100) // past String's stack buffer
	for _, l := range []LOID{
		Nil,
		{Domain: "uva", Class: "Host", Instance: math.MaxUint64},
		{Domain: "uva", Class: "Host"}, // instance 0 is not the nil LOID
		{Domain: long, Class: long, Instance: 1},
		{Domain: "σ", Class: "%d%s", Instance: 7},
	} {
		check(l)
		if got, err := Parse(l.String()); err != nil || got != l {
			t.Errorf("Parse(%q) = %v, %v; want the LOID back", l.String(), got, err)
		}
	}
	if err := quick.Check(func(dom, class string, inst uint64) bool {
		return check(LOID{Domain: dom, Class: class, Instance: inst})
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestLessIsStrictTotalOrder(t *testing.T) {
	ls := []LOID{
		{Domain: "a", Class: "A", Instance: 1},
		{Domain: "a", Class: "A", Instance: 2},
		{Domain: "a", Class: "B", Instance: 1},
		{Domain: "b", Class: "A", Instance: 1},
	}
	for i := range ls {
		if ls[i].Less(ls[i]) {
			t.Errorf("%v.Less(self) = true", ls[i])
		}
		for j := range ls {
			if i == j {
				continue
			}
			if ls[i].Less(ls[j]) == ls[j].Less(ls[i]) {
				t.Errorf("Less not antisymmetric for %v, %v", ls[i], ls[j])
			}
		}
	}
	for i := 0; i < len(ls)-1; i++ {
		if !ls[i].Less(ls[i+1]) {
			t.Errorf("want %v < %v", ls[i], ls[i+1])
		}
	}
}

func TestMinterUnique(t *testing.T) {
	m := NewMinter("uva")
	if m.Domain() != "uva" {
		t.Fatalf("Domain() = %q", m.Domain())
	}
	const n = 1000
	var mu sync.Mutex
	seen := make(map[LOID]bool, n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				l := m.Mint("Host")
				mu.Lock()
				if seen[l] {
					t.Errorf("duplicate LOID %v", l)
				}
				seen[l] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Errorf("minted %d unique, want %d", len(seen), n)
	}
	for l := range seen {
		if l.IsNil() || l.Instance == 0 {
			t.Errorf("minted invalid LOID %v", l)
		}
	}
}

func TestMinterPanics(t *testing.T) {
	assertPanics(t, func() { NewMinter("") })
	assertPanics(t, func() { NewMinter("d").Mint("") })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	f()
}

func TestShortAndMustParse(t *testing.T) {
	l := LOID{Domain: "uva", Class: "Host", Instance: 7}
	if l.Short() != "Host/7" {
		t.Errorf("Short = %q", l.Short())
	}
	if Nil.Short() != "nil" {
		t.Errorf("Nil.Short = %q", Nil.Short())
	}
	if MustParse(l.String()) != l {
		t.Error("MustParse round trip")
	}
	assertPanics(t, func() { MustParse("garbage") })
}
