package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/sched"
)

func buildTestFleet(t *testing.T, specs []HostSpec) *Fleet {
	t.Helper()
	ms := core.New("uva", core.Options{Seed: 7})
	return Build(ms, rand.New(rand.NewSource(7)), specs)
}

func TestBuildFleet(t *testing.T) {
	f := buildTestFleet(t, RandomSpecs(rand.New(rand.NewSource(1)), 10, "z1", "z2"))
	if len(f.Hosts) != 10 {
		t.Fatalf("hosts: %d", len(f.Hosts))
	}
	// One vault per zone, hosts joined the Collection.
	if n := len(f.MS.Vaults()); n < 1 || n > 2 {
		t.Errorf("vaults: %d", n)
	}
	if f.MS.Collection.Size() != 10 {
		t.Errorf("collection: %d", f.MS.Collection.Size())
	}
	for _, h := range f.Hosts {
		i, ok := f.indexOf(h.LOID())
		if !ok || f.Hosts[i] != h {
			t.Errorf("indexOf(%v) = %d %v", h.LOID(), i, ok)
			continue
		}
		if s := f.specAt(i); s.CPUs < 1 {
			t.Errorf("specAt(%d) = %+v", i, s)
		}
	}
	if _, ok := f.indexOf(loid.LOID{Domain: "x", Class: "Host", Instance: 1}); ok {
		t.Error("indexOf unknown host")
	}

	// A declared world of two zones with two vaults each: zone z2 appears
	// first, so it mints first, and each host's host_vaults names exactly
	// its own zone's two vaults in mint order.
	specs := UniformSpecs(4, 4)
	specs[0].Zone, specs[2].Zone = "z2", "z2"
	f = New(Spec{Domain: "uva", Options: core.Options{Seed: 7}, Hosts: specs, Vaults: 2})
	vaults := f.MS.Vaults()
	if len(vaults) != 4 {
		t.Fatalf("vaults: %d, want 2 per zone", len(vaults))
	}
	want := map[string][]string{
		"z2": {vaults[0].LOID().String(), vaults[1].LOID().String()},
		"z1": {vaults[2].LOID().String(), vaults[3].LOID().String()},
	}
	hosts := make([]loid.LOID, len(f.Hosts))
	for i, h := range f.Hosts {
		hosts[i] = h.LOID()
		var got []string
		for _, p := range h.Attributes() {
			if p.Name == "host_vaults" {
				for _, v := range p.Value.ListVal() {
					got = append(got, v.Str())
				}
			}
		}
		if !slices.Equal(got, want[specs[i].Zone]) {
			t.Errorf("host %d in %s: host_vaults %v, want %v", i, specs[i].Zone, got, want[specs[i].Zone])
		}
	}
	one := mappingsOn(hosts, []int{1, 1, 1, 1})
	if ms := f.Makespan(one, time.Second); ms != time.Second {
		t.Errorf("makespan over New's hosts: %v, want 1s", ms)
	}
	if im := f.Imbalance(one); im != 1.0 {
		t.Errorf("imbalance over New's hosts: %v, want 1", im)
	}
}

func TestUniformSpecs(t *testing.T) {
	specs := UniformSpecs(5, 4)
	if len(specs) != 5 || specs[0].CPUs != 4 || specs[0].Arch != "x86" {
		t.Errorf("specs: %+v", specs[0])
	}
}

func mappingsOn(hosts []loid.LOID, counts []int) []sched.Mapping {
	var out []sched.Mapping
	cl := loid.LOID{Domain: "uva", Class: "C", Instance: 1}
	vl := loid.LOID{Domain: "uva", Class: "V", Instance: 1}
	for i, h := range hosts {
		for j := 0; j < counts[i]; j++ {
			out = append(out, sched.Mapping{Class: cl, Host: h, Vault: vl})
		}
	}
	return out
}

func TestMakespanModel(t *testing.T) {
	f := buildTestFleet(t, []HostSpec{
		{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 512, Zone: "z1", Speed: 1.0},
		{Arch: "x86", OS: "Linux", CPUs: 1, MemoryMB: 512, Zone: "z1", Speed: 1.0},
	})
	h0, h1 := f.Hosts[0].LOID(), f.Hosts[1].LOID()
	task := time.Second

	// 4 tasks on the 4-CPU idle host: one wave -> 1s.
	ms := f.Makespan(mappingsOn([]loid.LOID{h0}, []int{4}), task)
	if ms != time.Second {
		t.Errorf("one wave: %v", ms)
	}
	// 5 tasks: two waves -> 2s.
	ms = f.Makespan(mappingsOn([]loid.LOID{h0}, []int{5}), task)
	if ms != 2*time.Second {
		t.Errorf("two waves: %v", ms)
	}
	// 2 tasks on the 1-CPU host: 2 waves -> 2s, dominating 4 on h0.
	ms = f.Makespan(mappingsOn([]loid.LOID{h0, h1}, []int{4, 2}), task)
	if ms != 2*time.Second {
		t.Errorf("bottleneck host: %v", ms)
	}
	// Load slows things: load 1.0 doubles the time.
	f.Hosts[0].SetExternalLoad(1.0)
	ms = f.Makespan(mappingsOn([]loid.LOID{h0}, []int{4}), task)
	if ms != 2*time.Second {
		t.Errorf("loaded: %v", ms)
	}
}

func TestImbalance(t *testing.T) {
	f := buildTestFleet(t, UniformSpecs(2, 4))
	h0, h1 := f.Hosts[0].LOID(), f.Hosts[1].LOID()
	// Balanced: 2 and 2 on equal hosts.
	if im := f.Imbalance(mappingsOn([]loid.LOID{h0, h1}, []int{2, 2})); im != 1.0 {
		t.Errorf("balanced imbalance: %v", im)
	}
	// Skewed: 6 and 2 -> max/mean = 6/4 = 1.5.
	if im := f.Imbalance(mappingsOn([]loid.LOID{h0, h1}, []int{6, 2})); im != 1.5 {
		t.Errorf("skewed imbalance: %v", im)
	}
	if im := f.Imbalance(nil); im != 0 {
		t.Errorf("empty imbalance: %v", im)
	}
}

func TestTaskCounts(t *testing.T) {
	f := buildTestFleet(t, UniformSpecs(2, 4))
	h0, h1 := f.Hosts[0].LOID(), f.Hosts[1].LOID()
	counts := TaskCounts(mappingsOn([]loid.LOID{h0, h1}, []int{3, 1}))
	if counts[h0] != 3 || counts[h1] != 1 {
		t.Errorf("counts: %v", counts)
	}
}

func TestRandomSpecsProperties(t *testing.T) {
	specs := RandomSpecs(rand.New(rand.NewSource(3)), 50, "z1", "z2", "z3")
	zones := map[string]bool{}
	for _, s := range specs {
		if s.CPUs < 1 || s.MemoryMB < 64 || s.Speed <= 0 {
			t.Errorf("bad spec: %+v", s)
		}
		if s.Load < 0.1 || s.Load > 0.6 {
			t.Errorf("load out of range: %v", s.Load)
		}
		zones[s.Zone] = true
	}
	if len(zones) < 2 {
		t.Errorf("zones used: %v", zones)
	}
	// Defaults to z1 with no zones given.
	specs = RandomSpecs(rand.New(rand.NewSource(3)), 3)
	for _, s := range specs {
		if s.Zone != "z1" {
			t.Errorf("default zone: %q", s.Zone)
		}
	}
}
