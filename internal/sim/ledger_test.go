package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"legion/internal/vclock"
)

// TestPlacementAllocLedger charges every allocation of the virtual arm's
// placements to the package that made it: the first legion/internal/…
// frame of its stack (sim for the fixture's own teardown calls; "-" when
// no frame of the tree is on the stack). The virtual arm's counts are
// exact, so each package is pinned at equality over ten rotations of
// the four generators (40 placements of two instances each): a change
// that adds an allocation fails here and names the package it landed
// in, and one that removes some must lower that package's row. Print
// the table, and below it the sites that allocate most (that frame's
// function and line), with
//
//	go test ./internal/sim -run TestPlacementAllocLedger -v
func TestPlacementAllocLedger(t *testing.T) {
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("coverage instrumentation and the race detector allocate")
	}
	want := map[string]int{
		"vclock":      284,
		"enactor":     320,
		"reservation": 193,
		"scheduler":   210,
		"host":        193,
		"telemetry":   160,
		"sched":       120,
		"sim":         100,
		"classobj":    80,
		"vault":       80,
		"-":           4,
	}
	const rotations = 10
	vc := vclock.NewVirtual()
	var sites map[string]int
	vc.Run(func() {
		place, _ := placementFixture(t, vc, false)
		sites = allocLedger(place, rotations)
	})
	got := map[string]int{}
	total := 0
	for s, n := range sites {
		got[sitePackage(s)] += n
		total += n
	}
	placements := float64(rotations * len(placementGens))
	var b strings.Builder
	for _, p := range byCount(got) {
		fmt.Fprintf(&b, "\t%-14s %5d  %6.2f per placement\n", p, got[p], float64(got[p])/placements)
	}
	b.WriteString("top sites:\n")
	for i, s := range byCount(sites) {
		if i == topSites {
			break
		}
		fmt.Fprintf(&b, "\t%5d  %6.2f per placement  %s\n", sites[s], float64(sites[s])/placements, s)
	}
	t.Logf("%d allocations in %.0f placements, %.2f per placement:\n%s", total, placements, float64(total)/placements, b.String())
	for p, n := range got {
		if want[p] != n {
			t.Errorf("%s: %d allocations, want %d", p, n, want[p])
		}
	}
	for p, n := range want {
		if _, ok := got[p]; !ok {
			t.Errorf("%s: 0 allocations, want %d", p, n)
		}
	}
}

// topSites is how many allocation sites the ledger prints.
const topSites = 12

// byCount returns m's keys, the largest count first, ties by key.
func byCount(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return m[keys[i]] > m[keys[j]] || m[keys[i]] == m[keys[j]] && keys[i] < keys[j]
	})
	return keys
}

// allocLedger runs place for rotations rotations, after one to warm
// every path at the profiling rate, and returns the allocations each
// site made in them. The profile sees every allocation but one that
// shares a 16-byte tiny block already started, so the window must start
// from the same block state and keep it: one P, and no GC cycle inside
// (a cycle drops the block) beyond the one that starts it.
func allocLedger(place func(), rotations int) map[string]int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	rotate := func() {
		for range placementGens {
			place()
		}
	}
	rotate()
	before := allocsBySite()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for r := 0; r < rotations; r++ {
		rotate()
	}
	after := allocsBySite()
	out := map[string]int{}
	for s, n := range after {
		if d := n - before[s]; d > 0 && s != "" {
			out[s] = int(d)
		}
	}
	return out
}

// allocsBySite reads the heap profile, published by a GC cycle, and sums
// the objects ever allocated at each site.
func allocsBySite() map[string]int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := map[string]int64{}
	for i := range recs {
		out[allocSite(recs[i].Stack())] += recs[i].AllocObjects
	}
	return out
}

// allocSite names the first legion/internal/… frame of stk as its
// function, without the prefix, and line; "-" if there is none, and ""
// for what the ledger does not charge.
func allocSite(stk []uintptr) string {
	const prefix = "legion/internal/"
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		switch f.Function {
		case "runtime.itabAdd", "runtime.typeAssert", "runtime.interfaceSwitch":
			// The runtime grew its table of interface method sets, or a
			// type assertion's cache, which it does at random: when
			// depends on every type the binary asserts and on chance,
			// not on the placement.
			return ""
		}
		if rest, ok := strings.CutPrefix(f.Function, prefix); ok {
			if strings.HasPrefix(rest, "sim.alloc") {
				return "" // the ledger's own reading
			}
			return fmt.Sprintf("%s:%d", rest, f.Line)
		}
		if !more {
			return "-"
		}
	}
}

// sitePackage is the package an allocSite name is charged to.
func sitePackage(site string) string {
	if i := strings.IndexByte(site, '.'); i > 0 {
		return site[:i]
	}
	return site
}
