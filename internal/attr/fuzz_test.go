package attr

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// FuzzDecode asserts the gob decoder is total over arbitrary bytes — a
// malformed payload must produce an error, never a panic or an
// out-of-range Value, or the codec's gob test reference could crash on
// the inputs it exists to judge — and that whatever it accepts survives
// an encode/decode round trip unchanged.
func FuzzDecode(f *testing.F) {
	for _, v := range []Value{
		{},
		String(""),
		String("Linux"),
		Int(-42),
		Float(0.25),
		Bool(true),
		List(),
		Strings("v1", "v2"),
		List(Int(1), String("x"), List(Bool(false), Float(3.14))),
	} {
		enc, err := v.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		var v Value
		if err := v.GobDecode(data); err != nil {
			return
		}
		if k := v.Kind(); k < KindInvalid || k > KindList {
			t.Fatalf("decoded out-of-range kind %d", int(k))
		}
		reenc, err := v.GobEncode()
		if err != nil {
			t.Fatalf("re-encode of accepted value failed: %v", err)
		}
		var v2 Value
		if err := v2.GobDecode(reenc); err != nil {
			t.Fatalf("decode of re-encoded value failed: %v", err)
		}
		if !v.Equal(v2) {
			t.Fatalf("round trip changed value: %s != %s", v, v2)
		}
		// String() must be total too — records get rendered in traces.
		_ = v.String()
		_ = bytes.Equal(data, reenc) // representations may differ; only values must match
	})
}

// TestDecodeRejectsInvalidKind pins the hardening: a wire value whose
// Kind is outside the enum must be refused, not stored.
func TestDecodeRejectsInvalidKind(t *testing.T) {
	good := String("x")
	enc, err := good.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var v Value
	if err := v.GobDecode(enc); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}

	for _, k := range []Kind{Kind(-1), KindList + 1, Kind(1000)} {
		// No Value holds such a kind, so encode the gob form directly.
		var enc bytes.Buffer
		if err := gob.NewEncoder(&enc).Encode(wireValue{Kind: k, S: "x"}); err != nil {
			t.Fatal(err)
		}
		var out Value
		if err := out.GobDecode(enc.Bytes()); err == nil {
			t.Errorf("kind %d: decode accepted out-of-range kind", int(k))
		}
	}
}

// FuzzSetModel runs random sequences of NewSet, Set and Merge
// against a map, the Set's old representation, and after every step
// checks that Snapshot is strictly ascending, holds exactly the map's
// pairs and is clipped to its length, and that Get agrees with the map
// for every name. Each step also takes a Snapshot before its write and
// checks afterwards that it still holds the model as it was: a write
// never reaches a version already handed out. Names come from a small
// alphabet and every write stores a fresh value, so NewSet and Merge see
// duplicate names, and keeping the last one is observable.
func FuzzSetModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3})                          // NewSet with a duplicate
	f.Add([]byte{3, 5, 6, 7, 0, 1, 9, 1, 5, 2, 3, 2, 2, 4, 2})  // Set and Merge
	f.Add([]byte{0, 2, 4, 8, 8, 8, 8, 1, 8, 0, 8, 1, 0, 0, 11}) // Merge repeats a name
	// Every name, so a snapshot is long enough (14 pairs and more) that
	// append's size-class rounding would show in its capacity.
	f.Add([]byte{5, 0, 1, 2, 3, 4, 2, 5, 5, 6, 7, 8, 9, 2, 5, 10, 11, 12, 13, 14, 2, 5, 15, 0, 15, 3, 15, 1, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		names := []string{
			"", "a", "b", "host_arch", "host_cpus", "host_domain", "host_load", "host_loid",
			"host_os_name", "host_price", "host_speed", "host_vaults", "host_zone", "m", "z", "zz",
		}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := int(ops[0])
			ops = ops[1:]
			return b
		}
		serial := 0
		pair := func() Pair {
			serial++
			name := names[next()%len(names)]
			var v Value
			switch serial % 5 {
			case 0:
				v = String(name)
			case 1:
				v = Int(int64(serial))
			case 2:
				v = Float(float64(serial) / 4)
			case 3:
				v = Bool(serial%2 == 1)
			case 4:
				v = List(Int(int64(serial)))
			}
			return Pair{Name: name, Value: v}
		}
		pairs := func() []Pair {
			ps := make([]Pair, next()%6)
			for i := range ps {
				ps[i] = pair()
			}
			return ps
		}

		model := map[string]Value{}
		put := func(ps []Pair) {
			for _, p := range ps {
				model[p.Name] = p.Value
			}
		}
		initial := pairs()
		put(initial)
		s := NewSet(initial...)
		checkSetModel(t, "NewSet", s, model, names)
		for step := 0; len(ops) > 0; step++ {
			before, was := s.Snapshot(), maps.Clone(model)
			switch op := next() % 2; op {
			case 0:
				p := pair()
				s.Set(p.Name, p.Value)
				model[p.Name] = p.Value
			case 1:
				ps := pairs()
				s.Merge(ps)
				put(ps)
			}
			at := fmt.Sprintf("step %d", step)
			checkSetModel(t, at, s, model, names)
			checkPairs(t, at+", the snapshot taken before it", before, was)
		}
	})
}

// checkSetModel fails t unless s holds exactly model's pairs.
func checkSetModel(t *testing.T, at string, s *Set, model map[string]Value, names []string) {
	t.Helper()
	if n := len(s.Snapshot()); n != len(model) {
		t.Fatalf("%s: %d pairs, model %d", at, n, len(model))
	}
	checkPairs(t, at, s.Snapshot(), model)
	for _, name := range names {
		got, ok := s.Get(name)
		want, wantOK := model[name]
		if ok != wantOK || !sameValue(got, want) {
			t.Fatalf("%s: Get(%q) = %v, %t; model %v, %t", at, name, got, ok, want, wantOK)
		}
	}
}

// checkPairs fails t unless snap is strictly ascending, at exactly its
// capacity, and holds exactly model's pairs.
func checkPairs(t *testing.T, at string, snap []Pair, model map[string]Value) {
	t.Helper()
	if cap(snap) != len(snap) || len(snap) != len(model) {
		t.Fatalf("%s: snapshot len %d cap %d, model %d", at, len(snap), cap(snap), len(model))
	}
	for i, p := range snap {
		if i > 0 && snap[i-1].Name >= p.Name {
			t.Fatalf("%s: snapshot not strictly ascending at %d: %q then %q", at, i, snap[i-1].Name, p.Name)
		}
		if want, ok := model[p.Name]; !ok || !sameValue(p.Value, want) {
			t.Fatalf("%s: snapshot has %q = %v, model %v (present %t)", at, p.Name, p.Value, want, ok)
		}
	}
}

// FuzzFinderModel holds one Finder to Lookup over a run of records:
// after every record, each of a handful of names looked up through the
// Finder gives what Lookup gives. A record keeps the previous record's
// layout (the slot the Finder remembers is right), or takes a new one
// from a 12-name alphabet (the slot may be wrong, out of range, or the
// name gone). Lookups draw on the alphabet, on names no record holds,
// and on copies of names that are equal but not the same string, and
// twelve names are more than the Finder remembers.
func FuzzFinderModel(f *testing.F) {
	f.Add([]byte{})
	// A record is a layout byte (a multiple of 4 keeps the previous
	// layout; anything else is the low half of a 12-bit name mask, the
	// next byte the high half), a value byte per name, a count byte
	// (count%6+1 lookups), and a byte per lookup: its low 7 bits pick
	// the name (12 and up: absent names), the top bit copies it.
	//
	// {alive arch cpus load}, then the same layout again.
	f.Add([]byte{0x0f, 0x00, 1, 1, 1, 1, 2, 3, 1, 2, 0x00, 5, 5, 5, 5, 2, 3, 1, 2})
	// {alive arch cpus load}, then {arch cpus load zone_a}: every name
	// the Finder remembers has moved down one slot.
	f.Add([]byte{0x0f, 0x00, 1, 1, 1, 1, 2, 3, 1, 2, 0x0e, 0x04, 1, 1, 1, 1, 2, 3, 1, 2})
	// {alive arch cpus load}, then {alive}: load's slot is past the end;
	// then absent names and copies.
	f.Add([]byte{0x0f, 0x00, 1, 1, 1, 1, 0, 3, 0x01, 0x00, 1, 5, 3, 0, 12, 13, 0x83, 0x80, 16})
	// Every name, looked up six at a time: twelve names overflow the
	// Finder's memory, then the first six come back.
	f.Add([]byte{
		0xff, 0x0f, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 5, 0, 1, 2, 3, 4, 5,
		0x00, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 5, 6, 7, 8, 9, 10, 11,
		0x00, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 5, 0, 1, 2, 3, 4, 5,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		names := []string{
			"alive", "arch", "cpus", "load", "mem", "os", "speed", "state", "vaults", "zone", "zone_a", "zone_b",
		}
		// The names a lookup draws on: the alphabet, then names no
		// record holds.
		pool := append(slices.Clone(names), "", "a", "loa", "load_", "zzz")
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		var find Finder
		var layout []string
		for step := 0; len(data) > 0; step++ {
			// A record: the previous layout with new values, or a new
			// layout picked by a 12-bit mask.
			if b := next(); b%4 != 0 || layout == nil {
				mask := int(b) | int(next())<<8
				layout = layout[:0:0]
				for i, name := range names {
					if mask&(1<<i) != 0 {
						layout = append(layout, name)
					}
				}
			}
			rec := make([]Pair, len(layout))
			for i, name := range layout {
				rec[i] = Pair{Name: name, Value: Int(int64(step)<<16 | int64(i)<<8 | int64(next()))}
			}
			for n := int(next())%6 + 1; n > 0; n-- {
				b := next()
				name := pool[int(b&0x7f)%len(pool)]
				if b&0x80 != 0 {
					name = strings.Clone(name) // equal, not the same string
				}
				got, ok := find.Lookup(rec, name)
				want, wantOK := Lookup(rec, name)
				if ok != wantOK || !sameValue(got, want) {
					t.Fatalf("step %d, record %v: Finder.Lookup(%q) = %v, %t; Lookup %v, %t", step, layout, name, got, ok, want, wantOK)
				}
			}
		}
	})
}
