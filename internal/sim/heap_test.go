package sim

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"
	"unsafe"

	"legion/internal/attr"
	"legion/internal/core"
	"legion/internal/rge"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// TestFleetHeapPerHost pins what one host of a seeded sim.Build fleet
// keeps live on the virtual clock, vscale's configuration: the Host, its
// attribute Set, reservation table and trigger set, its Collection
// record and index entries, and its share of the directory. Most of it
// is the host's attributes, held once: the Collection record adopts the
// version the Host pushed, so the test checks that the two share one
// backing array, and pins the sizes of the two types it is made of. On
// linux/amd64 with Go 1.24 it read 6,880 B per host while a Value was
// 72 bytes and a Set a map, 3,836 B once a Value was 40 bytes and a Set
// its sorted pairs, and 2,833 B since the record adopts the Host's
// version; the scannable bytes (the ones a GC cycle walks) read 3,568 B
// and then 2,546 B. Each budget is its reading plus 5 %.
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
	live0, scan0 := liveHeap()
	fleet := Build(ms, rng, specs)
	live1, scan1 := liveHeap()
	runtime.KeepAlive(fleet)
	runtime.KeepAlive(specs)
	for _, c := range []struct {
		what          string
		before, after uint64
		budget        float64
	}{
		{"live", live0, live1, 2975},
		{"scannable", scan0, scan1, 2673},
	} {
		perHost := float64(c.after-c.before) / hosts
		if perHost > c.budget {
			t.Errorf("%.0f B %s per host, budget %.0f", perHost, c.what, c.budget)
		} else {
			t.Logf("%.0f B %s per host (budget %.0f)", perHost, c.what, c.budget)
		}
	}

	// A trigger that always fires hands its outcall the Host's current
	// version, the one Reassess then pushes: the record must be that
	// very array, not a copy of it.
	h := fleet.Hosts[0]
	var version []attr.Pair
	if err := h.Triggers().Define("always", "true"); err != nil {
		t.Fatal(err)
	}
	h.Triggers().RegisterOutcall("always", func(ev rge.Event) { version = ev.Attrs })
	h.Reassess(context.Background())
	recs, err := ms.Collection.Query(`$host_loid == "` + h.LOID().String() + `"`)
	if err != nil || len(recs) != 1 || len(version) == 0 {
		t.Fatalf("host %v: %d records, %d pairs in its version, err %v", h.LOID(), len(recs), len(version), err)
	}
	if &recs[0].Attrs[0] != &version[0] {
		t.Errorf("host %v: the Collection record is a copy of the Host's attributes, not the Host's version", h.LOID())
	}
}

// liveHeap returns the bytes the heap holds, and the scannable ones
// among them, once two collections have run: the first frees what was
// garbage, the second what the first's finalizers and sweep left.
func liveHeap() (live, scannable uint64) {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	scan := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(scan)
	return m.HeapAlloc, scan[0].Value.Uint64()
}
