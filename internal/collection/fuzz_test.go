package collection

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/query"
)

// fuzzKeys mixes indexed keys (see DefaultIndexedKeys) with unindexed
// ones, so generated queries exercise both the pruned path and the
// fall-back full scan, and conjunctions that mix the two.
var fuzzKeys = []string{
	"host_arch", "host_zone", "host_alive", "host_os_name", // indexed
	"host_load", "host_cpus", "note", // unindexed
}

var fuzzStrings = []string{"x86", "mips", "sparc", "z1", "z2", ""}

// fuzzValue derives an attribute value from one byte, covering every
// Value kind plus the int/float equality edge (attr.Int(3) equals
// attr.Float(3); the index's canonical() must bucket them together).
func fuzzValue(b byte) attr.Value {
	switch b % 5 {
	case 0:
		return attr.String(fuzzStrings[int(b/5)%len(fuzzStrings)])
	case 1:
		return attr.Float(float64(int(b)-128) / 16)
	case 2:
		return attr.Int(int64(b%8) - 3)
	case 3:
		return attr.Float(float64(b % 8)) // collides with Int buckets
	default:
		return attr.Bool(b%2 == 0)
	}
}

// buildFromBytes deterministically decodes data into a member→attrs
// population and applies it, in order, to every given Collection —
// joins, re-join merges, updates, and leaves, so index maintenance
// (insert/replace/remove) is exercised, not just bulk load.
func buildFromBytes(data []byte, colls ...*Collection) {
	i := 0
	next := func() (byte, bool) {
		if i >= len(data) {
			return 0, false
		}
		b := data[i]
		i++
		return b, true
	}
	for {
		op, ok := next()
		if !ok {
			return
		}
		m := member(uint64(op%16) + 1) // 16 members → re-joins and updates happen
		switch op % 4 {
		case 3: // leave
			for _, c := range colls {
				_ = c.Leave(m, "")
			}
		default: // join or merge-update
			nAttrs, ok := next()
			if !ok {
				return
			}
			attrs := make([]attr.Pair, 0, nAttrs%4+1)
			for a := byte(0); a < nAttrs%4+1; a++ {
				kb, ok1 := next()
				vb, ok2 := next()
				if !ok1 || !ok2 {
					break
				}
				attrs = append(attrs, attr.Pair{Name: fuzzKeys[int(kb)%len(fuzzKeys)], Value: fuzzValue(vb)})
			}
			for _, c := range colls {
				_ = c.Join(m, attrs, "")
			}
		}
	}
}

// FuzzQueryIndexEquivalence is the differential guard on the PR 3 index
// pruning soundness argument: for arbitrary populations and queries,
// the indexed path must return exactly the records a full scan returns.
func FuzzQueryIndexEquivalence(f *testing.F) {
	seedData := [][]byte{
		{0, 2, 0, 10, 4, 17},
		{1, 3, 0, 0, 1, 33, 2, 64, 3, 5, 1, 4, 100, 7, 2, 6, 8},
		{9, 1, 2, 3, 13, 2, 0, 40, 5, 91, 21, 1, 3, 77, 11, 3},
	}
	seedQueries := []string{
		`$host_arch == "x86"`,
		`$host_zone == "z1" and $host_load < 0.5`,
		`$host_alive == true and ($host_arch == "mips" or $host_cpus > 2)`,
		`defined($host_arch)`,
		`$host_arch != "x86"`,
		`$host_cpus == 3 and $host_zone >= "z1"`,
		`$host_os_name == "" or not ($host_load > 0)`,
	}
	for i, d := range seedData {
		for _, q := range seedQueries {
			_ = i
			f.Add(d, q)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, src string) {
		rt := orb.NewRuntime("uva")
		indexed := New(rt, nil) // DefaultIndexedKeys
		scan := New(rt, nil)
		scan.SetIndexedKeys() // empty key set: candidates() never prunes
		buildFromBytes(data, indexed, scan)

		gotRecs, gotErr := indexed.Query(src)
		wantRecs, wantErr := scan.Query(src)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error divergence: indexed=%v scan=%v (query %q)", gotErr, wantErr, src)
		}
		if gotErr != nil {
			return // both rejected the query; nothing to compare
		}
		if err := sameRecords(gotRecs, wantRecs); err != nil {
			t.Fatalf("indexed/scan divergence on %q over %v: %v", src, data, err)
		}
	})
}

// sameRecords compares two result sets up to order.
func sameRecords(a, b []Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("result sizes %d vs %d", len(a), len(b))
	}
	byMember := func(rs []Record) {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Member.Less(rs[j].Member) })
	}
	byMember(a)
	byMember(b)
	for i := range a {
		if a[i].Member != b[i].Member {
			return fmt.Errorf("member %d: %v vs %v", i, a[i].Member, b[i].Member)
		}
		am, bm := attr.FromPairs(a[i].Attrs), attr.FromPairs(b[i].Attrs)
		if len(am) != len(bm) {
			return fmt.Errorf("%v: attr counts %d vs %d", a[i].Member, len(am), len(bm))
		}
		for k, v := range am {
			if w, ok := bm[k]; !ok || !v.Equal(w) {
				return fmt.Errorf("%v: attr %q %v vs %v", a[i].Member, k, v, w)
			}
		}
	}
	return nil
}

// modelRecord is a record the way the Collection kept one before records
// became their sorted pairs: a map, merged by assignment.
type modelRecord struct {
	attrs     map[string]attr.Value
	updatedAt time.Time
}

// modelMerge is the map-based newRecord this package used to have, kept
// as the reference the two-pointer merge is checked against.
func modelMerge(old *modelRecord, attrs []attr.Pair, at time.Time) *modelRecord {
	m := make(map[string]attr.Value)
	if old != nil {
		for k, v := range old.attrs {
			m[k] = v
		}
	}
	for _, p := range attrs {
		m[p.Name] = p.Value
	}
	return &modelRecord{attrs: m, updatedAt: at}
}

// pairs renders the model record as the sorted slice a query returns.
func (r *modelRecord) pairs() []attr.Pair {
	pairs := make([]attr.Pair, 0, len(r.attrs))
	for k, v := range r.attrs {
		pairs = append(pairs, attr.Pair{Name: k, Value: v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Name < pairs[j].Name })
	return pairs
}

// samePairs compares two attribute lists pair for pair: same names in
// the same order, values of the same kind and content.
func samePairs(a, b []attr.Pair) bool {
	return slices.EqualFunc(a, b, func(x, y attr.Pair) bool {
		return x.Name == y.Name && x.Value.Kind() == y.Value.Kind() && x.Value.Equal(y.Value)
	})
}

// mergeQueries cover the indexed path (equality and range on indexed
// keys), the scan path, and a conjunction that mixes the two.
var mergeQueries = []string{
	`true`,
	`defined($host_arch)`,
	`$host_zone == "z1"`,
	`$host_alive == true and $host_load < 0.5`,
	`$host_arch >= "mips" and not defined($note)`,
	`$host_os_name == 3`,
}

// checkAgainstModel holds c to the map model after one step: the stored
// records, the index, and every query's reply.
func checkAgainstModel(t *testing.T, c *Collection, model map[loid.LOID]*modelRecord, step string) {
	t.Helper()
	if len(c.records) != len(model) {
		t.Fatalf("%s: %d records, model has %d", step, len(c.records), len(model))
	}
	for m, want := range model {
		r := c.records[m]
		if r == nil {
			t.Fatalf("%s: %v missing", step, m)
		}
		if cap(r.pairs) != len(r.pairs) {
			t.Fatalf("%s: %v: pairs has len %d, cap %d", step, m, len(r.pairs), cap(r.pairs))
		}
		for i := 1; i < len(r.pairs); i++ {
			if r.pairs[i-1].Name >= r.pairs[i].Name {
				t.Fatalf("%s: %v: pairs not strictly sorted: %v", step, m, r.pairs)
			}
		}
		if !samePairs(r.pairs, want.pairs()) {
			t.Fatalf("%s: %v: pairs %v, model %v", step, m, r.pairs, want.pairs())
		}
		if !r.updatedAt.Equal(want.updatedAt) {
			t.Fatalf("%s: %v: updated at %v, model %v", step, m, r.updatedAt, want.updatedAt)
		}
	}

	// The incrementally maintained index must be the one a rebuild from
	// scratch produces — this is what guards replace's same-bucket skip.
	fresh := newAttrIndex(DefaultIndexedKeys)
	for m, r := range c.records {
		fresh.replace(m, nil, r)
	}
	for k := range fresh.keys {
		got, want := c.idx.buckets[k], fresh.buckets[k]
		if len(got) != len(want) {
			t.Fatalf("%s: index key %q: %d buckets, rebuilt %d", step, k, len(got), len(want))
		}
		for text, wb := range want {
			gb := got[text]
			if gb == nil || !reflect.DeepEqual(gb.members, wb.members) {
				t.Fatalf("%s: index key %q bucket %s: %v, rebuilt %v", step, k, text, gb, wb.members)
			}
			if canonical(gb.val) != text {
				t.Fatalf("%s: index key %q bucket %s holds value %v", step, k, text, gb.val)
			}
		}
	}

	for _, src := range mergeQueries {
		e, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var want []Record
		for m, r := range model {
			if ok, err := query.Eval(e, query.MapRecord(r.attrs)); err == nil && ok {
				want = append(want, Record{Member: m, Attrs: r.pairs(), UpdatedAt: r.updatedAt})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Member.Less(want[j].Member) })
		got, err := c.Query(src)
		if err != nil {
			t.Fatalf("%s: %q: %v", step, src, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %q: %d records, model %d", step, src, len(got), len(want))
		}
		for i := range got {
			if got[i].Member != want[i].Member || !got[i].UpdatedAt.Equal(want[i].UpdatedAt) ||
				!samePairs(got[i].Attrs, want[i].Attrs) {
				t.Fatalf("%s: %q record %d: %+v, model %+v", step, src, i, got[i], want[i])
			}
		}
	}
}

// FuzzRecordMergeModel drives random Join/Update/ApplyBatch/Leave/Prune
// sequences — unsorted updates, duplicate names, empty updates, re-joins
// of a member — through a Collection and the map model side by side, and
// after every step holds the Collection to the model.
func FuzzRecordMergeModel(f *testing.F) {
	f.Add([]byte{0, 3, 6, 10, 1, 17, 0, 40, 1, 1, 0, 1, 6, 9})
	f.Add([]byte{16, 2, 1, 5, 1, 7, 17, 0, 2, 2, 0, 11, 16, 3, 4, 8, 80, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{3, 1, 2, 7, 4, 4, 2, 0, 4, 19, 1, 3, 35, 0, 2, 1, 0, 64, 66, 5, 0, 0, 3, 9, 9})
	f.Add([]byte{32, 4, 0, 10, 0, 20, 0, 30, 0, 40, 33, 1, 4, 0, 4, 4, 4, 48, 2, 49, 5, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		c := New(orb.NewRuntime("uva"), nil)
		epoch := time.Unix(1_000_000, 0)
		tick := 0
		c.SetClock(func() time.Time { return epoch.Add(time.Duration(tick) * time.Second) })
		model := map[loid.LOID]*modelRecord{}

		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			i++
			return data[i-1]
		}
		// An update of 0–4 pairs over 7 names: short enough to come out
		// empty, long enough to repeat a name and to arrive unsorted.
		update := func() []attr.Pair {
			attrs := make([]attr.Pair, next()%5)
			for a := range attrs {
				attrs[a] = attr.Pair{Name: fuzzKeys[int(next())%len(fuzzKeys)], Value: fuzzValue(next())}
			}
			return attrs
		}
		// The Collection must have copied what it keeps.
		scribble := func(attrs []attr.Pair) {
			for a := range attrs {
				attrs[a] = attr.Pair{Name: "scribbled", Value: attr.Int(-1)}
			}
		}
		for i < len(data) {
			tick++
			at := c.now()
			op := next()
			m := member(uint64(op%16) + 1)
			step := fmt.Sprintf("step %d (byte %d)", tick, i)
			switch op / 16 % 5 {
			case 0: // join, or re-join: a merge
				attrs := update()
				if err := c.Join(m, attrs, ""); err != nil {
					t.Fatal(err)
				}
				model[m] = modelMerge(model[m], attrs, at)
				scribble(attrs)
			case 1: // update: members only
				attrs := update()
				err := c.Update(m, attrs, "")
				if (err == nil) != (model[m] != nil) {
					t.Fatalf("%s: Update error %v, member in model: %v", step, err, model[m] != nil)
				}
				if err == nil {
					model[m] = modelMerge(model[m], attrs, at)
				}
				scribble(attrs)
			case 2: // batch: upserts and update-only entries, one member twice
				entries := make([]proto.BatchEntry, next()%4)
				for e := range entries {
					b := next()
					entries[e] = proto.BatchEntry{Member: member(uint64(b%16) + 1), Attrs: update(), UpdateOnly: b >= 128}
				}
				want := 0
				for _, e := range entries {
					if e.UpdateOnly && model[e.Member] == nil {
						continue
					}
					model[e.Member] = modelMerge(model[e.Member], e.Attrs, at)
					want++
				}
				if applied, dropped := c.ApplyBatch(entries, ""); applied != want || applied+dropped != len(entries) {
					t.Fatalf("%s: batch applied %d dropped %d, model applies %d of %d", step, applied, dropped, want, len(entries))
				}
				for _, e := range entries {
					scribble(e.Attrs)
				}
			case 3:
				err := c.Leave(m, "")
				if (err == nil) != (model[m] != nil) {
					t.Fatalf("%s: Leave error %v, member in model: %v", step, err, model[m] != nil)
				}
				delete(model, m)
			case 4:
				cutoff := at.Add(-time.Duration(next()%8) * time.Second)
				want := 0
				for m, r := range model {
					if r.updatedAt.Before(cutoff) {
						delete(model, m)
						want++
					}
				}
				if n := c.Prune(cutoff); n != want {
					t.Fatalf("%s: pruned %d, model %d", step, n, want)
				}
			}
			checkAgainstModel(t, c, model, step)
		}
	})
}
