package collection

import (
	"fmt"
	"testing"

	"legion/internal/attr"
	"legion/internal/orb"
)

// pushAttrs is a Host's full push, 20 attributes in Snapshot order, the
// shape every Update on the hot path has.
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
	for i := set.Len(); i < 20; i++ {
		set.Set(fmt.Sprintf("host_extra_%02d", i), attr.Int(int64(i)))
	}
	return set.Snapshot()
}

// TestUpdateAllocBudget: an Update allocates the merged pair slice and
// the record that holds it. The index costs nothing unless an indexed
// value moved to another bucket, and then only what moving it costs.
func TestUpdateAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	c := New(orb.NewRuntime("uva"), nil)
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

// TestSelectiveQueryAllocBudget: a query's allocations do not grow with
// the candidates it evaluates — the evaluator reads each record's own
// pairs in place — only with the doublings of the result slice.
func TestSelectiveQueryAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	c := New(orb.NewRuntime("uva"), nil)
	const hosts = 10000
	candidates, want := 0, 0
	for i := uint64(1); i <= hosts; i++ {
		zone, load := fmt.Sprintf("z%d", i%4), float64(i%100)/100
		if err := c.Join(member(i), pushAttrs(zone, load), ""); err != nil {
			t.Fatal(err)
		}
		if zone == "z3" {
			candidates++
			if load < 0.5 {
				want++
			}
		}
	}
	const src = `$host_zone == "z3" and $host_load < 0.5`
	var got []Record
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if got, err = c.Query(src); err != nil {
			t.Fatal(err)
		}
	})
	if len(got) != want {
		t.Fatalf("%d records match, want %d", len(got), want)
	}
	// 2,500 candidates, 1,200 matches: the result slice doubles a dozen
	// times; span, snapshot and bookkeeping are a handful more.
	if allocs > 40 {
		t.Errorf("selective query over %d records (%d candidates): %.0f allocs/op, budget 40", hosts, candidates, allocs)
	}
	t.Logf("%d candidates, %d matches: %.0f allocs/op", candidates, want, allocs)
}
