package scheduler

import (
	"math/rand"
	"reflect"
	"testing"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/proto"
)

// parseHostInfoByMap is parseHostInfo as it was while a map was built per
// record: the reference the one-pass parser is held to. A map keeps the
// last pair of a name, whatever order the pairs come in.
func parseHostInfoByMap(rec proto.CollectionRecord) HostInfo {
	m := attr.FromPairs(rec.Attrs)
	h := HostInfo{LOID: rec.Member}
	if v, ok := m["host_arch"]; ok {
		h.Arch = v.Str()
	}
	if v, ok := m["host_os_name"]; ok {
		h.OS = v.Str()
	}
	if v, ok := m["host_load"]; ok {
		h.Load, _ = v.AsFloat()
	}
	if v, ok := m["host_cpus"]; ok {
		if f, fok := v.AsFloat(); fok {
			h.CPUs = int(f)
		}
	}
	if v, ok := m["host_zone"]; ok {
		h.Zone = v.Str()
	}
	if v, ok := m["host_cost_per_cpu"]; ok {
		h.Cost, _ = v.AsFloat()
	}
	if v, ok := m["host_price"]; ok {
		h.Price, _ = v.AsFloat()
	}
	if v, ok := m["host_class"]; ok {
		h.Spot = v.Str() == "spot"
	}
	if v, ok := m["host_speed"]; ok {
		h.Speed, _ = v.AsFloat()
	}
	if v, ok := m["host_is_batch"]; ok {
		h.Batch = v.BoolVal()
	}
	if v, ok := m["host_alive"]; ok {
		h.Down = !v.BoolVal()
	}
	if v, ok := m["host_load_history"]; ok && v.Kind() == attr.KindList {
		for i := 0; i < v.Len(); i++ {
			if f, fok := v.At(i).AsFloat(); fok {
				h.LoadHistory = append(h.LoadHistory, f)
			}
		}
	}
	if v, ok := m["host_vaults"]; ok && v.Kind() == attr.KindList {
		for i := 0; i < v.Len(); i++ {
			if l, err := loid.Parse(v.At(i).Str()); err == nil {
				h.Vaults = append(h.Vaults, l)
			}
		}
	}
	return h
}

// TestParseHostInfoMatchesMapReference feeds both parsers records a
// well-behaved Collection never sends — shuffled, names repeated, values
// of the wrong kind, lists with elements that do not convert — and
// expects the same HostInfo, nil slices included.
func TestParseHostInfoMatchesMapReference(t *testing.T) {
	names := []string{
		"host_arch", "host_os_name", "host_load", "host_cpus", "host_zone",
		"host_cost_per_cpu", "host_price", "host_class", "host_speed",
		"host_is_batch", "host_alive", "host_load_history", "host_vaults",
		"host_mem_available_mb", "note",
	}
	vault := loid.LOID{Domain: "uva", Class: "Vault", Instance: 3}.String()
	values := []attr.Value{
		attr.String("x86"), attr.String("spot"), attr.String(""), attr.String(vault),
		attr.Int(0), attr.Int(8), attr.Float(0.25), attr.Float(-3.5),
		attr.Bool(true), attr.Bool(false),
		attr.List(), attr.Strings(vault, "not a loid", vault),
		attr.List(attr.Float(0.1), attr.String("x"), attr.Int(2)),
		attr.List(attr.String("x"), attr.Bool(true)),
		{},
	}
	rng := rand.New(rand.NewSource(15))
	for n := 0; n < 5000; n++ {
		rec := proto.CollectionRecord{Member: loid.LOID{Domain: "uva", Class: "Host", Instance: uint64(n)}}
		for i := rng.Intn(24); i > 0; i-- {
			rec.Attrs = append(rec.Attrs, attr.Pair{
				Name:  names[rng.Intn(len(names))],
				Value: values[rng.Intn(len(values))],
			})
		}
		if got, want := parseHostInfo(rec), parseHostInfoByMap(rec); !reflect.DeepEqual(got, want) {
			t.Fatalf("record %v:\n one pass %+v\n by map   %+v", rec.Attrs, got, want)
		}
	}
}

// fullHostRecord is a record with every attribute a Host pushes that the
// scheduler reads, and a few it does not.
func fullHostRecord() proto.CollectionRecord {
	vault := loid.LOID{Domain: "uva", Class: "Vault", Instance: 1}.String()
	return proto.CollectionRecord{
		Member: loid.LOID{Domain: "uva", Class: "Host", Instance: 1},
		Attrs: attr.NewSet(
			attr.Pair{Name: "host_alive", Value: attr.Bool(true)},
			attr.Pair{Name: "host_arch", Value: attr.String("x86")},
			attr.Pair{Name: "host_class", Value: attr.String("spot")},
			attr.Pair{Name: "host_cost_per_cpu", Value: attr.Float(1.5)},
			attr.Pair{Name: "host_cpus", Value: attr.Int(8)},
			attr.Pair{Name: "host_is_batch", Value: attr.Bool(false)},
			attr.Pair{Name: "host_load", Value: attr.Float(0.25)},
			attr.Pair{Name: "host_load_history", Value: attr.List(attr.Float(0.1), attr.Float(0.2), attr.Float(0.3), attr.Float(0.4), attr.Float(0.5))},
			attr.Pair{Name: "host_mem_available_mb", Value: attr.Int(4096)},
			attr.Pair{Name: "host_os_name", Value: attr.String("Linux")},
			attr.Pair{Name: "host_os_type", Value: attr.String("unix")},
			attr.Pair{Name: "host_price", Value: attr.Float(0.1)},
			attr.Pair{Name: "host_speed", Value: attr.Float(1.25)},
			attr.Pair{Name: "host_state", Value: attr.String("up")},
			attr.Pair{Name: "host_vaults", Value: attr.Strings(vault, vault, vault)},
			attr.Pair{Name: "host_zone", Value: attr.String("z1")},
		).Snapshot(),
	}
}

// TestParseHostInfoAllocBudget: parsing a record allocates the two slices
// a HostInfo owns, Vaults and LoadHistory, each once — no map, nothing
// per attribute.
func TestParseHostInfoAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	rec := fullHostRecord()
	var h HostInfo
	if allocs := testing.AllocsPerRun(100, func() { h = parseHostInfo(rec) }); allocs > 2 {
		t.Errorf("parseHostInfo: %.1f allocs/op, budget 2 (Vaults, LoadHistory)", allocs)
	}
	if len(h.Vaults) != 3 || len(h.LoadHistory) != 5 || h.CPUs != 8 || !h.Spot {
		t.Errorf("parsed: %+v", h)
	}
}

// TestUsableSharesAnUnfilteredView: when no host is filtered out the
// view is the snapshot itself, and otherwise one exact allocation.
func TestUsableSharesAnUnfilteredView(t *testing.T) {
	vaults := []loid.LOID{{Domain: "uva", Class: "Vault", Instance: 1}}
	hosts := []HostInfo{{Vaults: vaults}, {Vaults: vaults}, {Vaults: vaults}}
	if view := usable(hosts); &view[0] != &hosts[0] || len(view) != 3 {
		t.Errorf("nothing to filter, yet usable copied")
	}
	hosts[1].Down = true
	view := usable(hosts)
	if len(view) != 2 || cap(view) != 2 || &view[0] == &hosts[0] {
		t.Errorf("filtered view: len %d cap %d", len(view), cap(view))
	}
	if !hosts[1].Down || len(hosts) != 3 {
		t.Errorf("usable disturbed its input")
	}
}
