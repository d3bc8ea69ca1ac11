package collection

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"legion/internal/attr"
	"legion/internal/orb"
	"legion/internal/proto"
)

// pushAttrs is a Host's full push, 20 attributes in Snapshot order, the
// shape every Update on the hot path has: a Set's version, strictly
// sorted and at exact capacity.
func pushAttrs(zone string, load float64) []attr.Pair {
	set := attr.NewSet(
		attr.Pair{Name: "host_alive", Value: attr.Bool(true)},
		attr.Pair{Name: "host_arch", Value: attr.String("x86")},
		attr.Pair{Name: "host_is_batch", Value: attr.Bool(false)},
		attr.Pair{Name: "host_load", Value: attr.Float(load)},
		attr.Pair{Name: "host_os_name", Value: attr.String("Linux")},
		attr.Pair{Name: "host_os_type", Value: attr.String("unix")},
		attr.Pair{Name: "host_state", Value: attr.String("up")},
		attr.Pair{Name: "host_zone", Value: attr.String(zone)},
	)
	for i := len(set.Snapshot()); i < 20; i++ {
		set.Set(fmt.Sprintf("host_extra_%02d", i), attr.Int(int64(i)))
	}
	return set.Snapshot()
}

// TestUpdateAllocBudget: an Update allocates the merged pair slice and
// the record that holds it, and the adopting update the ORB handler
// makes of a covering version allocates the record alone. The index
// costs nothing unless an indexed value moved to another bucket, and
// then only what moving it costs.
func TestUpdateAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	rt := orb.NewRuntime("uva")
	c := New(rt, nil)
	for i := uint64(1); i <= 64; i++ {
		if err := c.Join(member(i), pushAttrs("z1", 0.5), ""); err != nil {
			t.Fatal(err)
		}
	}
	update := func(push []attr.Pair) func() {
		return func() {
			if err := c.Update(member(7), push, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, update(pushAttrs("z1", 0.25))); allocs > 2 {
		t.Errorf("Update, no indexed value changed: %.1f allocs/op, budget 2", allocs)
	}
	// The argument is boxed once, as a caller that reuses it would: what
	// is left is the ORB's dispatch and the handler's adopting update.
	var arg any = proto.UpdateArgs{Member: member(7), Attrs: pushAttrs("z1", 0.75)}
	adopt := func() {
		if _, err := rt.Call(context.Background(), c.LOID(), proto.MethodUpdateCollectionEntry, arg); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, adopt); allocs > 1 {
		t.Errorf("in-process update_collection_entry of a covering version: %.1f allocs/op, budget 1 (the record)", allocs)
	}
	// Moving between two live zone buckets renders the old and the new
	// value's bucket key; every other indexed key is skipped.
	pushes := [][]attr.Pair{pushAttrs("z2", 0.25), pushAttrs("z1", 0.25)}
	n := 0
	c.Join(member(65), pushes[0], "") // keeps bucket z2 alive
	moved := testing.AllocsPerRun(100, func() { n++; update(pushes[n%2])() })
	if moved <= 2 || moved > 2+6 {
		t.Errorf("Update, host_zone changed: %.1f allocs/op, want 2 plus at most 6 for the index", moved)
	}
}

// joinFleet joins hosts members spread over zones z0–z3, with loads
// stepping by 0.01.
func joinFleet(t *testing.T, c *Collection, hosts int) {
	t.Helper()
	for i := uint64(1); i <= uint64(hosts); i++ {
		zone, load := fmt.Sprintf("z%d", i%4), float64(i%100)/100
		if err := c.Join(member(i), pushAttrs(zone, load), ""); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSelectiveQueryAllocBudget: a query's allocations do not grow with
// the candidates it evaluates or the records it returns. The snapshot
// is sized to the chosen bucket, the evaluator reads each record's own
// pairs in place, and the reply is allocated once, at its exact length.
func TestSelectiveQueryAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const src = `$host_zone == "z3" and $host_load < 0.5`
	for _, hosts := range []int{1000, 10000} {
		c := New(orb.NewRuntime("uva"), nil)
		joinFleet(t, c, hosts)
		candidates, want := 0, 0
		for i := 1; i <= hosts; i++ {
			if i%4 == 3 {
				candidates++
				if i%100 < 50 {
					want++
				}
			}
		}
		var got []Record
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if got, err = c.Query(src); err != nil {
				t.Fatal(err)
			}
		})
		if len(got) != want || cap(got) != len(got) {
			t.Fatalf("%d records match (cap %d), want %d at exact capacity", len(got), cap(got), want)
		}
		// 8 at any size: the span, the terms slice (grown twice), the
		// zone's bucket key, the Env, the snapshot and the reply.
		if allocs > 9 {
			t.Errorf("selective query over %d records (%d candidates): %.0f allocs/op, budget 9", hosts, candidates, allocs)
		}
		t.Logf("%d candidates, %d matches: %.0f allocs/op", candidates, want, allocs)
	}
}

// TestFullScanQueryAllocBudget: a query no index prunes — the one every
// generator asks on a cache miss — allocates the same handful of
// objects at any size, and its bytes are the snapshot and the reply,
// each at exactly its length.
func TestFullScanQueryAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const hosts = 10000
	c := New(orb.NewRuntime("uva"), nil)
	joinFleet(t, c, hosts)
	const src = `defined($host_arch)`
	var got []Record
	query := func() {
		var err error
		if got, err = c.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, query)
	if len(got) != hosts || cap(got) != len(got) {
		t.Fatalf("%d records match (cap %d), want %d at exact capacity", len(got), cap(got), hosts)
	}
	// 4: the span, the Env, the snapshot and the reply.
	if allocs > 5 {
		t.Errorf("full scan over %d records: %.0f allocs/op, budget 5", hosts, allocs)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	exact := uint64(hosts) * uint64(unsafe.Sizeof(Record{})+unsafe.Sizeof(candidate{}))
	if bytes > exact+exact/20 {
		t.Errorf("full scan over %d records: %d B/op, budget %d (snapshot and reply at their length, +5%%)", hosts, bytes, exact+exact/20)
	}
	t.Logf("%.0f allocs/op, %d B/op", allocs, bytes)
}
