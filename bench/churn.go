package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"legion/internal/attr"
	"legion/internal/collection"
	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/proto"
	"legion/internal/sim"
	"legion/internal/telemetry"
)

const (
	// selectiveQuery is E8's indexed conjunctive query; fullMatchQuery is
	// the string scheduler.implQuery builds for a class with no
	// implementations, i.e. what every generator asks on a cache miss.
	selectiveQuery = `$host_zone == "z3" and $host_load < 0.5`
	fullMatchQuery = `defined($host_arch)`

	// The reader's cycle is 9 selective queries then 1 full match; the
	// writer's is 63 single Updates then 1 ApplyBatch of 64 entries.
	selectivePerCycle = 9
	updatesPerCycle   = 63
	batchEntries      = 64
)

// churnFixture is one Collection holding a real fleet's records, read
// and written at once through its public methods: one reader goroutine
// beside one writer goroutine, so a change that speeds queries by taxing
// updates (or the reverse) shows in one row.
type churnFixture struct {
	cfg   config
	coll  *collection.Collection
	hosts []loid.LOID
	// snapshots[h] is host h's full attribute push, as Host.Reassess
	// sends it, with loadAt[h] the position of its host_load pair. The
	// writer overwrites that pair before each update.
	snapshots [][]attr.Pair
	loadAt    []int
	// targets and loads are the seeded update schedule, generated before
	// any timing: update k refreshes host targets[k%len] with load
	// loads[k%len]. The lengths are coprime, so pairs do not repeat.
	targets []int32
	loads   []float64
	next    int // schedule position, carried across trials
	// mirror[h] is the load the writer last gave host h: what a scan of
	// the Collection must show afterwards.
	mirror []float64
	batch  []proto.BatchEntry
	// queries and matched count the reader's queries and the records
	// they returned.
	queries, matched int64
}

func buildChurn(cfg config) (fixture, error) {
	f, err := newChurn(cfg)
	if err != nil {
		return nil, err
	}
	// Warm-up: parse cache, index, one cycle of each side.
	if _, err := f.readCycle(unwrapped); err != nil {
		return nil, err
	}
	if _, err := f.writeCycle(unwrapped); err != nil {
		return nil, err
	}
	return f, nil
}

func newChurn(cfg config) (*churnFixture, error) {
	ms := core.New("bench", core.Options{Seed: cfg.seed, Metrics: telemetry.NewRegistry()})
	rng := rand.New(rand.NewSource(cfg.seed))
	fleet := sim.Build(ms, rng, sim.RandomSpecs(rng, cfg.bigHosts, "z1", "z2", "z3", "z4"))
	f := &churnFixture{
		cfg: cfg, coll: ms.Collection,
		targets: make([]int32, 1<<16), loads: make([]float64, 1<<16-1),
		batch: make([]proto.BatchEntry, batchEntries),
	}
	for _, h := range fleet.Hosts {
		// Only the attributes outlive this loop: the hosts themselves
		// play no part once their records are deposited.
		snap := h.Attributes()
		at := -1
		for i, p := range snap {
			if p.Name == "host_load" {
				at = i
			}
		}
		if at < 0 {
			return nil, fmt.Errorf("host %v reports no host_load", h.LOID())
		}
		f.hosts = append(f.hosts, h.LOID())
		f.snapshots = append(f.snapshots, snap)
		f.loadAt = append(f.loadAt, at)
		f.mirror = append(f.mirror, snap[at].Value.FloatVal())
	}
	for i := range f.targets {
		f.targets[i] = int32(rng.Intn(len(f.hosts)))
	}
	for i := range f.loads {
		f.loads[i] = rng.Float64()
	}
	return f, nil
}

// refresh prepares the next scheduled update and returns its host.
func (f *churnFixture) refresh() int {
	h := int(f.targets[f.next%len(f.targets)])
	load := f.loads[f.next%len(f.loads)]
	f.next++
	f.snapshots[h][f.loadAt[h]].Value = attr.Float(load)
	f.mirror[h] = load
	return h
}

// callWrapper runs one public Collection call of the named kind: the
// end-to-end run times it, the traced run puts a span round it.
type callWrapper func(kind string, call func() error) error

func unwrapped(_ string, call func() error) error { return call() }

// timedInto returns a wrapper appending the latency of calls of one
// kind to lat.
func timedInto(lat *[]time.Duration, kind string) callWrapper {
	return func(k string, call func() error) error {
		if k != kind {
			return call()
		}
		t0 := time.Now()
		err := call()
		*lat = append(*lat, time.Since(t0))
		return err
	}
}

// The kinds of public Collection call; also the traced run's span names.
const (
	kindSelective = "collection.selective_query"
	kindFull      = "collection.full_query"
	kindUpdate    = "collection.update"
	kindBatch     = "collection.apply_batch"
)

// readCycle runs one reader cycle and returns the calls made.
func (f *churnFixture) readCycle(wrap callWrapper) (calls int64, err error) {
	query := func(kind, src string, want int) error {
		return wrap(kind, func() error {
			recs, err := f.coll.Query(src)
			if err == nil && want >= 0 && len(recs) != want {
				err = fmt.Errorf("%s returned %d of %d records", kind, len(recs), want)
			}
			f.queries, f.matched = f.queries+1, f.matched+int64(len(recs))
			return err
		})
	}
	for i := 0; i < selectivePerCycle; i++ {
		if err := query(kindSelective, selectiveQuery, -1); err != nil {
			return calls, err
		}
		calls++
	}
	if err := query(kindFull, fullMatchQuery, len(f.hosts)); err != nil {
		return calls, err
	}
	return calls + 1, nil
}

// writeCycle runs one writer cycle and returns the calls made.
func (f *churnFixture) writeCycle(wrap callWrapper) (calls int64, err error) {
	for i := 0; i < updatesPerCycle; i++ {
		h := f.refresh()
		if err := wrap(kindUpdate, func() error { return f.coll.Update(f.hosts[h], f.snapshots[h], "") }); err != nil {
			return calls, err
		}
		calls++
	}
	for i := range f.batch {
		h := f.refresh()
		f.batch[i] = proto.BatchEntry{Member: f.hosts[h], Attrs: f.snapshots[h], UpdateOnly: true}
	}
	// A repeated host within one batch shares its snapshot slice, so
	// both entries carry the later load: the same final state as
	// applying them in order.
	err = wrap(kindBatch, func() error {
		if applied, dropped := f.coll.ApplyBatch(f.batch, ""); applied != len(f.batch) || dropped != 0 {
			return fmt.Errorf("ApplyBatch applied %d, dropped %d of %d", applied, dropped, len(f.batch))
		}
		return nil
	})
	if err != nil {
		return calls, err
	}
	return calls + 1, nil
}

func (f *churnFixture) trial(int) (trial, error) {
	d := f.cfg.trialDur()
	var (
		queries, updates   []time.Duration
		reads, writes      int64
		readErr, writeErr  error
		readBad, writesBad int64
	)
	timeQueries, timeUpdates := timedInto(&queries, kindSelective), timedInto(&updates, kindUpdate)
	u := measured(func() {
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline) && (f.cfg.maxOps == 0 || n < f.cfg.maxOps); n++ {
				calls, err := f.readCycle(timeQueries)
				reads += calls
				if err != nil {
					readErr, readBad = err, readBad+1
				}
			}
		}()
		go func() {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline) && (f.cfg.maxOps == 0 || n < f.cfg.maxOps); n++ {
				calls, err := f.writeCycle(timeUpdates)
				writes += calls
				if err != nil {
					writeErr, writesBad = err, writesBad+1
				}
			}
		}()
		wg.Wait()
	})
	t := trial{
		ops: reads + writes, failed: readBad + writesBad, usage: u, samples: len(queries),
		p50: percentileUS(queries, 0.50), aux: percentileUS(updates, 0.50),
		note: fmt.Sprintf("query_p99=%.0fus reader_calls=%d writer_calls=%d update_samples=%d",
			percentileUS(queries, 0.99), reads, writes, len(updates)),
	}
	for _, err := range []error{readErr, writeErr} {
		if err != nil {
			t.note += " error: " + err.Error()
		}
	}
	return t, nil
}

// check re-validates the queries against a linear scan of the same
// records: the full-match result must hold every host with the load the
// writer last gave it, and the selective result must be exactly the
// scanned records in zone z3 with a load under 0.5.
func (f *churnFixture) check() []string {
	all, err := f.coll.QueryCtx(context.Background(), fullMatchQuery)
	if err != nil {
		return []string{err.Error()}
	}
	var msgs []string
	index := make(map[loid.LOID]int, len(f.hosts))
	for i, l := range f.hosts {
		index[l] = i
	}
	want := map[loid.LOID]bool{}
	stale := 0
	for _, rec := range all {
		attrs := attr.FromPairs(rec.Attrs)
		load := attrs["host_load"].FloatVal()
		if h, ok := index[rec.Member]; !ok || load != f.mirror[h] {
			stale++
		}
		if attrs["host_zone"].Str() == "z3" && load < 0.5 {
			want[rec.Member] = true
		}
	}
	if len(all) != len(f.hosts) || stale > 0 {
		msgs = append(msgs, fmt.Sprintf("full-match query: %d of %d records, %d not at the last written load", len(all), len(f.hosts), stale))
	}
	got, err := f.coll.Query(selectiveQuery)
	if err != nil {
		return append(msgs, err.Error())
	}
	extra := 0
	for _, rec := range got {
		if !want[rec.Member] {
			extra++
		}
	}
	if extra > 0 || len(got) != len(want) {
		msgs = append(msgs, fmt.Sprintf("selective query: %d records (%d wrong) where a linear scan finds %d", len(got), extra, len(want)))
	}
	return msgs
}

func (f *churnFixture) close() {}
