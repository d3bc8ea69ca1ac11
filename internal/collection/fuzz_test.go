package collection

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/query"
	"legion/internal/vclock"
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
// scalar Value kind plus the int/float equality edges (attr.Int(3)
// equals attr.Float(3), and attr.Float(-0) equals attr.Int(0); the
// index's canonical() must bucket each pair together).
func fuzzValue(b byte) attr.Value {
	switch b % 5 {
	case 0:
		return attr.String(fuzzStrings[int(b/5)%len(fuzzStrings)])
	case 1:
		return attr.Float(float64(int(b)-128) / 16)
	case 2:
		return attr.Int(int64(b%8) - 3)
	case 3:
		f := float64(b % 8) // collides with Int buckets
		if b/8%2 == 1 {
			f = -f // -0 when b%8 == 0
		}
		return attr.Float(f)
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

// FuzzQueryIndexEquivalence is the differential guard on the index: for
// arbitrary populations and queries, the indexed path — which prunes to
// a bucket and skips the == conjunct that bucket decides — must return
// exactly the records a full scan returns, in the same order.
func FuzzQueryIndexEquivalence(f *testing.F) {
	seedData := [][]byte{
		{0, 2, 0, 10, 4, 17},
		{1, 3, 0, 0, 1, 33, 2, 64, 3, 5, 1, 4, 100, 7, 2, 6, 8},
		{9, 1, 2, 3, 13, 2, 0, 40, 5, 91, 21, 1, 3, 77, 11, 3},
		// host_arch "mips", "x86", "mips", "x86" for members 1, 2, 3, 5:
		// a range over both buckets must interleave them.
		{0, 0, 0, 5, 1, 0, 0, 0, 2, 0, 0, 5, 4, 0, 0, 0},
	}
	seedQueries := []string{
		`$host_arch == "x86"`,
		`$host_zone == "z1" and $host_load < 0.5`,
		`$host_alive == true and ($host_arch == "mips" or $host_cpus > 2)`,
		`defined($host_arch)`,
		`$host_arch != "x86"`,
		`$host_cpus == 3 and $host_zone >= "z1"`,
		`$host_arch >= "mips"`,
		`$host_os_name == "" or not ($host_load > 0)`,
		// The == conjunct the index decides, and so skips: second in the
		// chain, the whole query, numeric, and beside a conjunct that
		// errors on some records.
		`$host_load < 0.5 and $host_zone == "z1"`,
		`$host_zone == "z1"`,
		`$host_arch == 0`,
		`$host_zone == "z1" and $host_arch < 3`,
		`($host_alive == true and $host_zone == "z2") and $host_load >= 0`,
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
		if err := sameReplies(gotRecs, wantRecs); err != nil {
			t.Fatalf("indexed/scan divergence on %q over %v: %v", src, data, err)
		}
	})
}

// sameReplies checks that two replies are each strictly ascending by
// member — the order Router.mergeSorted relies on — and equal element
// by element: same members, same attributes.
func sameReplies(a, b []Record) error {
	for _, rs := range [][]Record{a, b} {
		for i := 1; i < len(rs); i++ {
			if !rs[i-1].Member.Less(rs[i].Member) {
				return fmt.Errorf("reply not strictly ascending at %d: %v then %v", i, rs[i-1].Member, rs[i].Member)
			}
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("result sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Member != b[i].Member {
			return fmt.Errorf("member %d: %v vs %v", i, a[i].Member, b[i].Member)
		}
		if !samePairs(a[i].Attrs, b[i].Attrs) {
			return fmt.Errorf("%v: attrs %v vs %v", a[i].Member, a[i].Attrs, b[i].Attrs)
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
	`$host_arch == 0`,
	`$host_load < 0.5 and $host_arch == -3`,
}

// checkAgainstModel holds c to the map model after one step: the stored
// records, the index, and every query's reply.
func checkAgainstModel(t *testing.T, c *Collection, model map[loid.LOID]*modelRecord, step string) {
	t.Helper()
	if len(c.records) != len(model) {
		t.Fatalf("%s: %d records, model has %d", step, len(c.records), len(model))
	}
	for m, want := range model {
		e := c.records[m]
		if e == nil {
			t.Fatalf("%s: %v missing", step, m)
		}
		r := e.rec
		if e.member != m {
			t.Fatalf("%s: %v filed under %v", step, e.member, m)
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

	// The ordered entry list holds exactly the map's entries, strictly
	// ascending by member.
	if len(c.entries) != len(c.records) {
		t.Fatalf("%s: %d ordered entries, %d records", step, len(c.entries), len(c.records))
	}
	for i, e := range c.entries {
		if c.records[e.member] != e {
			t.Fatalf("%s: ordered entry %d (%v) is not the map's", step, i, e.member)
		}
		if i > 0 && !c.entries[i-1].member.Less(e.member) {
			t.Fatalf("%s: ordered entries not strictly ascending at %d: %v then %v", step, i, c.entries[i-1].member, e.member)
		}
	}

	// The incrementally maintained index must be the one a rebuild from
	// scratch produces, bucket order included — this is what guards
	// replace's same-bucket skip and the sorted inserts. The rebuild
	// files members in the model's own LOID order.
	members := make([]loid.LOID, 0, len(model))
	for m := range model {
		members = append(members, m)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Less(members[j]) })
	fresh := newAttrIndex(DefaultIndexedKeys)
	for _, m := range members {
		e := c.records[m]
		fresh.replace(e, nil, e.rec)
	}
	for k := range fresh.keys {
		got, want := c.idx.buckets[k], fresh.buckets[k]
		if len(got) != len(want) {
			t.Fatalf("%s: index key %q: %d buckets, rebuilt %d", step, k, len(got), len(want))
		}
		for text, wb := range want {
			gb := got[text]
			if gb == nil || !slices.Equal(gb.entries, wb.entries) {
				t.Fatalf("%s: index key %q bucket %s: %v, rebuilt %v", step, k, text, gb, wb.entries)
			}
			if canonical(gb.val) != text {
				t.Fatalf("%s: index key %q bucket %s holds value %v", step, k, text, gb.val)
			}
			// The property a query's skipped == conjunct rests on: every
			// member of a bucket carries a value Equal to the bucket's
			// (fuzzValue makes no lists and no NaN, the kinds that
			// would break it).
			for _, e := range gb.entries {
				if v, ok := e.rec.Lookup(k); !ok || !v.Equal(gb.val) {
					t.Fatalf("%s: index key %q bucket %s (%v) holds %v with %v", step, k, text, gb.val, e.member, v)
				}
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

// FuzzRecordMergeModel drives random Join/Update/ApplyBatch/Leave
// sequences — unsorted updates, duplicate names, empty updates, re-joins
// of a member, covering versions — through two Collections and the map
// model side by side, and after every step holds both to the model. One
// Collection takes each step through its copying Go methods, whose
// caller then scribbles on what it passed; the other through the
// adopting path the ORB handlers take, handed a slice of its own that
// nobody writes again. A covering version (every attribute of the
// record, sorted, at exact capacity) must become that one's record as
// it is.
func FuzzRecordMergeModel(f *testing.F) {
	f.Add([]byte{0, 3, 6, 10, 1, 17, 0, 40, 1, 1, 0, 1, 6, 9})
	f.Add([]byte{16, 2, 1, 5, 1, 7, 17, 0, 2, 2, 0, 11, 16, 3, 4, 8, 80, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{3, 1, 2, 7, 4, 4, 2, 0, 4, 19, 1, 3, 35, 0, 2, 1, 0, 64, 66, 5, 0, 0, 3, 9, 9})
	f.Add([]byte{32, 4, 0, 10, 0, 20, 0, 30, 0, 40, 33, 1, 4, 0, 4, 4, 4, 48, 2, 49, 5, 5, 0})
	// host_arch buckets shared across kinds: Int(0) with Float(-0),
	// Float(3) with Int(3), Int(-3) with Float(-3). Then member 1 goes
	// to Float(0) and member 2 from -0 to Int(0), a move sameBucket
	// cannot tell stays in one bucket.
	f.Add([]byte{0, 1, 0, 27, 1, 1, 0, 8, 2, 1, 0, 3, 3, 1, 0, 22, 4, 1, 0, 32, 5, 1, 0, 43, 16, 1, 0, 48, 17, 1, 0, 27})
	// Member 1 joins with two attributes, then gets a covering update
	// and a covering re-join, each of which the adopting Collection keeps
	// as it is.
	f.Add([]byte{0, 2, 0, 7, 1, 9, 144, 3, 4, 128, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		rt := orb.NewRuntime("uva")
		vc := vclock.NewVirtualAt(time.Unix(1_000_000, 0))
		rt.SetClock(vc)
		c, adopting := New(rt, nil), New(rt, nil)
		tick := 0
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
		// A covering version of m's record: every name the model holds
		// for it, in order, each with a fresh value.
		covering := func(m loid.LOID) []attr.Pair {
			var attrs []attr.Pair
			if model[m] != nil {
				attrs = model[m].pairs()
			}
			for a := range attrs {
				attrs[a].Value = fuzzValue(next())
			}
			return slices.Clip(attrs)
		}
		// The copying Collection must have copied what it keeps.
		scribble := func(attrs []attr.Pair) {
			for a := range attrs {
				attrs[a] = attr.Pair{Name: "scribbled", Value: attr.Int(-1)}
			}
		}
		// handOver gives the adopting Collection a slice of its own, at
		// exactly its length, as a decoded frame is.
		handOver := func(attrs []attr.Pair) []attr.Pair {
			return append(make([]attr.Pair, 0, len(attrs)), attrs...)
		}
		// adopted holds the adopting Collection to adopting a covering
		// version it was handed.
		adopted := func(step string, m loid.LOID, attrs []attr.Pair) {
			if len(attrs) == 0 {
				return
			}
			if e := adopting.records[m]; e == nil || &e.rec.pairs[0] != &attrs[0] {
				t.Fatalf("%s: %v: a covering version was copied, not adopted", step, m)
			}
		}
		for i < len(data) {
			tick++
			vc.Advance(time.Second)
			at := vc.Now()
			op := next()
			m := member(uint64(op%16) + 1)
			step := fmt.Sprintf("step %d (byte %d)", tick, i)
			// The top bit turns a join's or an update's attributes into a
			// covering version of m's record.
			cover := op >= 128
			switch op / 16 % 4 {
			case 0: // join, or re-join: a merge
				attrs := update()
				if cover {
					attrs = covering(m)
				}
				mine := handOver(attrs)
				if err := c.Join(m, attrs, ""); err != nil {
					t.Fatal(err)
				}
				if err := adopting.join(m, mine, "", true); err != nil {
					t.Fatal(err)
				}
				model[m] = modelMerge(model[m], attrs, at)
				scribble(attrs)
				if cover {
					adopted(step, m, mine)
				}
			case 1: // update: members only
				attrs := update()
				if cover {
					attrs = covering(m)
				}
				mine := handOver(attrs)
				err := c.Update(m, attrs, "")
				if (err == nil) != (model[m] != nil) {
					t.Fatalf("%s: Update error %v, member in model: %v", step, err, model[m] != nil)
				}
				if aerr := adopting.update(m, mine, "", true); (aerr == nil) != (err == nil) {
					t.Fatalf("%s: Update error %v, adopting update error %v", step, err, aerr)
				}
				if err == nil {
					model[m] = modelMerge(model[m], attrs, at)
					if cover {
						adopted(step, m, mine)
					}
				}
				scribble(attrs)
			case 2: // batch: upserts and update-only entries, one member twice
				entries := make([]proto.BatchEntry, next()%4)
				for e := range entries {
					b := next()
					entries[e] = proto.BatchEntry{Member: member(uint64(b%16) + 1), Attrs: update(), UpdateOnly: b >= 128}
				}
				mine := make([]proto.BatchEntry, len(entries))
				for e := range entries {
					mine[e] = entries[e]
					mine[e].Attrs = handOver(entries[e].Attrs)
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
				if applied, dropped := adopting.applyBatch(mine, "", true); applied != want || applied+dropped != len(entries) {
					t.Fatalf("%s: adopting batch applied %d dropped %d, model applies %d of %d", step, applied, dropped, want, len(entries))
				}
				for _, e := range entries {
					scribble(e.Attrs)
				}
			case 3:
				err := c.Leave(m, "")
				if (err == nil) != (model[m] != nil) {
					t.Fatalf("%s: Leave error %v, member in model: %v", step, err, model[m] != nil)
				}
				if aerr := adopting.Leave(m, ""); (aerr == nil) != (err == nil) {
					t.Fatalf("%s: Leave error %v, adopting Leave error %v", step, err, aerr)
				}
				delete(model, m)
			}
			checkAgainstModel(t, c, model, step)
			checkAgainstModel(t, adopting, model, step+", adopting")
		}
	})
}
