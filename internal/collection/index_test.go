package collection

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"legion/internal/attr"
	"legion/internal/orb"
	"legion/internal/telemetry"
)

func fleetAttrs(rng *rand.Rand) []attr.Pair {
	arches := []string{"mips", "sparc", "x86"}
	oses := []string{"IRIX", "Solaris", "Linux"}
	zones := []string{"uva", "sdsc", "mit"}
	return []attr.Pair{
		{Name: "host_alive", Value: attr.Bool(rng.Intn(10) > 0)},
		{Name: "host_arch", Value: attr.String(arches[rng.Intn(len(arches))])},
		{Name: "host_os_name", Value: attr.String(oses[rng.Intn(len(oses))])},
		{Name: "host_zone", Value: attr.String(zones[rng.Intn(len(zones))])},
		{Name: "host_cpus", Value: attr.Int(int64(1 + rng.Intn(8)))},
		{Name: "host_load", Value: attr.Float(rng.Float64())},
	}
}

// TestIndexedQueryEquivalence: for a workload of random records, updates
// and departures, every query must return identical results with the
// index enabled and disabled — the index only prunes, never changes
// semantics.
func TestIndexedQueryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	indexed := New(orb.NewRuntime("uva"), nil)
	scan := New(orb.NewRuntime("uva"), nil)
	scan.SetIndexedKeys() // disable

	for i := uint64(1); i <= 200; i++ {
		a := fleetAttrs(rng)
		indexed.Join(member(i), a, "")
		scan.Join(member(i), a, "")
	}
	// Churn: updates that move members between buckets, plus leaves.
	for i := 0; i < 100; i++ {
		m := member(uint64(1 + rng.Intn(200)))
		if rng.Intn(4) == 0 {
			indexed.Leave(m, "")
			scan.Leave(m, "")
			continue
		}
		a := fleetAttrs(rng)
		indexed.Update(m, a, "")
		scan.Update(m, a, "")
	}

	queries := []string{
		`$host_alive == true`,
		`$host_arch == "mips"`,
		`$host_arch == "mips" and $host_os_name == "IRIX"`,
		`$host_alive == true and $host_load < 0.5`,
		`$host_zone == "uva" and $host_cpus >= 4`,
		`$host_os_name >= "Linux" and $host_os_name <= "Solaris"`,
		`$host_arch == "vax"`,                          // empty bucket
		`$host_load < 0.3`,                             // unindexed key: full scan on both
		`$host_arch == "x86" or $host_arch == "sparc"`, // or: index bypassed
		`$host_alive == true and not ($host_zone == "mit")`,
		`true`,
	}
	for _, q := range queries {
		want, err := scan.Query(q)
		if err != nil {
			t.Fatalf("scan %q: %v", q, err)
		}
		got, err := indexed.Query(q)
		if err != nil {
			t.Fatalf("indexed %q: %v", q, err)
		}
		if len(got) != len(want) {
			t.Errorf("%q: indexed %d results, scan %d", q, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i].Member != want[i].Member {
				t.Errorf("%q result %d: indexed %v, scan %v", q, i, got[i].Member, want[i].Member)
			}
		}
	}
}

func TestIndexUsageCounters(t *testing.T) {
	rt := orb.NewRuntime("uva")
	reg := telemetry.NewRegistry()
	rt.SetMetrics(reg)
	c := New(rt, nil)
	c.Join(member(1), hostAttrs("IRIX", "5.3", 0.2), "")

	c.Query(`$host_os_name == "IRIX"`) // indexed
	c.Query(`$host_load < 0.5`)        // no indexed conjunct: scan
	c.Query(`$host_os_name == "IRIX"`) // cache hit + indexed
	if got := reg.CounterValue("legion_collection_query_indexed_total"); got != 2 {
		t.Errorf("indexed = %d, want 2", got)
	}
	if got := reg.CounterValue("legion_collection_query_scans_total"); got != 1 {
		t.Errorf("scans = %d, want 1", got)
	}
	if got := reg.CounterValue("legion_collection_query_cache_hits_total"); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

// TestIndexMaintenance: joins, bucket-moving updates, leaves and prunes
// keep the index consistent with the records.
func TestIndexMaintenance(t *testing.T) {
	c := New(orb.NewRuntime("uva"), nil)
	c.Join(member(1), []attr.Pair{{Name: "host_arch", Value: attr.String("mips")}}, "")
	c.Join(member(2), []attr.Pair{{Name: "host_arch", Value: attr.String("mips")}}, "")

	recs, _ := c.Query(`$host_arch == "mips"`)
	if len(recs) != 2 {
		t.Fatalf("initial: %d results", len(recs))
	}
	// Update moves member 1 to another bucket.
	c.Update(member(1), []attr.Pair{{Name: "host_arch", Value: attr.String("x86")}}, "")
	if recs, _ = c.Query(`$host_arch == "mips"`); len(recs) != 1 || recs[0].Member != member(2) {
		t.Fatalf("after update: %+v", recs)
	}
	if recs, _ = c.Query(`$host_arch == "x86"`); len(recs) != 1 || recs[0].Member != member(1) {
		t.Fatalf("x86 bucket: %+v", recs)
	}
	c.Leave(member(2), "")
	if recs, _ = c.Query(`$host_arch == "mips"`); len(recs) != 0 {
		t.Fatalf("after leave: %+v", recs)
	}
	// SetIndexedKeys rebuilds over live records.
	c.SetIndexedKeys("host_arch")
	if recs, _ = c.Query(`$host_arch == "x86"`); len(recs) != 1 {
		t.Fatalf("after rebuild: %+v", recs)
	}
}

// TestIndexNumericEquality: int and float values that compare equal must
// land in one bucket, matching the evaluator's cross-kind numerics.
func TestIndexNumericEquality(t *testing.T) {
	c := New(orb.NewRuntime("uva"), nil)
	c.SetIndexedKeys("host_cpus")
	c.Join(member(1), []attr.Pair{{Name: "host_cpus", Value: attr.Int(1000000)}}, "")
	c.Join(member(2), []attr.Pair{{Name: "host_cpus", Value: attr.Float(1e6)}}, "")
	recs, err := c.Query(fmt.Sprintf(`$host_cpus == %d`, 1000000))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("cross-kind numeric equality: %d results, want 2", len(recs))
	}
	// 0 and -0 are equal and print differently.
	c.Join(member(3), []attr.Pair{{Name: "host_cpus", Value: attr.Float(math.Copysign(0, -1))}}, "")
	c.Join(member(4), []attr.Pair{{Name: "host_cpus", Value: attr.Int(0)}}, "")
	if recs, err = c.Query(`$host_cpus == 0`); err != nil || len(recs) != 2 {
		t.Errorf("zero and negative zero: %d results (error %v), want 2", len(recs), err)
	}
}
