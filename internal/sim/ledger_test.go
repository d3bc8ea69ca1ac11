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

// TestPlacementAllocLedger charges every allocation of a placement to
// the package that made it: the first legion/internal/… frame of its
// stack (sim for the fixture's own teardown calls; "-" when no frame of
// the tree is on the stack). It runs each arm of placementFixture for
// ten rotations of the four generators (40 placements of two instances
// each) and pins each package's count at equality: a change that adds
// an allocation fails here and names the package it landed in, and one
// that removes some must lower that package's row. Print each arm's
// table, and below it the sites that allocate most (that frame's
// function and line), with
//
//	go test ./internal/sim -run TestPlacementAllocLedger -v
//
// On the virtual and wall arms, sched is the schedule a generator
// builds, its mappings and variants: a variant's bitmap over at most 64
// mappings keeps its word inline, and allocates nothing. The tcp arm's
// rows over the wall arm's are the socket's: the server decodes each
// schedule into fresh slices (sched), the client each enactment's
// instance lists (loid, proto), both runtimes start spans (telemetry),
// and each call that waits on the socket arms its deadline (vclock). Its orb and wire rows are the pools the
// window's first GC cycle emptied, refilled: buffers, reply slots and
// frames. A typed call crosses the socket as a value, so orb
// boxes nothing (DESIGN §14).
//
// The virtual and wall arms read the same on every run. The tcp arm
// also runs the two runtimes' read loops and flushers, and they decide
// when the one P's timer heap first outgrows its array; the growth is
// charged to the timer armed at that moment, a wallCtx's, so its vclock
// row may read one above its pin.
func TestPlacementAllocLedger(t *testing.T) {
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("coverage instrumentation and the race detector allocate")
	}
	t.Run("virtual", func(t *testing.T) {
		vc := vclock.NewVirtual()
		vc.Run(func() {
			ledgerArm(t, vc, false, map[string]int{
				"enactor":     320,
				"vclock":      284,
				"scheduler":   210,
				"host":        193,
				"reservation": 193,
				"telemetry":   160,
				"sim":         100,
				"classobj":    80,
				"sched":       80,
				"vault":       80,
				"-":           4,
			}, nil)
		})
	})
	t.Run("wall", func(t *testing.T) {
		ledgerArm(t, nil, false, map[string]int{
			"vclock":      400,
			"enactor":     320,
			"scheduler":   210,
			"host":        193,
			"reservation": 193,
			"telemetry":   160,
			"fanout":      120,
			"sim":         100,
			"classobj":    80,
			"sched":       80,
			"vault":       80,
			"-":           4,
		}, nil)
	})
	t.Run("tcp", func(t *testing.T) {
		ledgerArm(t, nil, true, map[string]int{
			"vclock":      480,
			"sched":       400,
			"telemetry":   360,
			"enactor":     320,
			"scheduler":   210,
			"host":        193,
			"reservation": 193,
			"fanout":      120,
			"sim":         100,
			"classobj":    80,
			"loid":        80,
			"vault":       80,
			"proto":       40,
			"orb":         8,
			"wire":        6,
			"-":           4,
		}, map[string]int{"vclock": 1})
	})
}

// ledgerArm runs placementFixture's arm on clock (nil for the wall
// clock; tcp for the client across a socket) under allocLedger, logs its
// table and fails t unless each package's count is want's, or above it
// by no more than slack's.
func ledgerArm(t *testing.T, clock vclock.Clock, tcp bool, want, slack map[string]int) {
	const rotations = 10
	place, _ := placementFixture(t, clock, tcp)
	sites := allocLedger(place, rotations)
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
		if n < want[p] || n > want[p]+slack[p] {
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
		case "runtime.bgscavenge":
			// The runtime's scavenger, on its own timer: not the
			// placement's work, and it wakes when it will.
			return ""
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
