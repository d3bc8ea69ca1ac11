package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"legion/internal/attr"
	"legion/internal/core"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// TestFleetHeapPerHost pins what one host of a seeded sim.Build fleet
// keeps live on the virtual clock, vscale's configuration: the Host, its
// attribute Set, reservation table and trigger set, its Collection
// record and index entries, and its share of the directory. Most of it
// is the host's attributes, held twice (the Host's Set and the
// Collection record), so the test also pins the sizes of the two types
// those copies are made of. On linux/amd64 with Go 1.24 it read 6,880 B
// per host while a Value was 72 bytes and a Set a map, and 3,836 B since
// a Value is 40 bytes and a Set its sorted pairs; the budget is that
// reading plus 5 %.
func TestFleetHeapPerHost(t *testing.T) {
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("coverage instrumentation and the race detector allocate")
	}
	if got := unsafe.Sizeof(attr.Value{}); got != 40 {
		t.Errorf("attr.Value is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(attr.Pair{}); got != 56 {
		t.Errorf("attr.Pair is %d bytes, want 56", got)
	}
	const hosts = 2000
	ms := core.New("heap", core.Options{Seed: 1, Metrics: telemetry.NewRegistry(), Clock: vclock.NewVirtual()})
	rng := rand.New(rand.NewSource(1))
	specs := RandomSpecs(rng, hosts, "z1", "z2", "z3", "z4")
	before := liveHeap()
	fleet := Build(ms, rng, specs)
	perHost := float64(liveHeap()-before) / hosts
	runtime.KeepAlive(fleet)
	runtime.KeepAlive(specs)
	const budget = 4028
	if perHost > budget {
		t.Errorf("%.0f B live per host, budget %d", perHost, budget)
	} else {
		t.Logf("%.0f B live per host (budget %d)", perHost, budget)
	}
}

// liveHeap returns the bytes the heap holds once two collections have
// run: the first frees what was garbage, the second what the first's
// finalizers and sweep left.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
