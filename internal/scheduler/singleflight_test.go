package scheduler

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/collection"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/query"
	"legion/internal/vclock"
)

const flightQuery = `defined($host_arch)`

// flightEnv is a Collection of a few host records behind a runtime whose
// every call takes latency on clock, and an Env with a cold HostCache.
func flightEnv(t *testing.T, clock vclock.Clock, latency time.Duration) (*Env, *collection.Collection) {
	t.Helper()
	rt := orb.NewRuntime("uva")
	rt.SetClock(clock)
	coll := collection.New(rt, nil)
	for i := uint64(1); i <= 16; i++ {
		m := loid.LOID{Domain: "uva", Class: "Host", Instance: i}
		if err := coll.Join(m, fullHostRecord().Attrs, ""); err != nil {
			t.Fatal(err)
		}
	}
	rt.SetLatency(latency, 0)
	return &Env{RT: rt, Collection: coll.LOID(), Cache: NewHostCache(clock, time.Hour)}, coll
}

// meet starts one goroutine per context on the clock, all looking up
// flightQuery, and waits for them on a Group of the same clock.
func meet(clock vclock.Clock, env *Env, ctxs []context.Context) ([]hostCacheEntry, []error) {
	snaps, errs := make([]hostCacheEntry, len(ctxs)), make([]error, len(ctxs))
	all := clock.NewGroup()
	all.Add(len(ctxs))
	for i, ctx := range ctxs {
		clock.Go(func() {
			defer all.Done()
			snaps[i], errs[i] = hostSnapshot(ctx, env, flightQuery)
		})
	}
	_ = all.Wait(context.Background())
	return snaps, errs
}

func background(n int) []context.Context {
	ctxs := make([]context.Context, n)
	for i := range ctxs {
		ctxs[i] = context.Background()
	}
	return ctxs
}

// expectOneFetch checks that n callers were answered by one Collection
// query, out of one backing array.
func expectOneFetch(t *testing.T, env *Env, coll *collection.Collection, snaps []hostCacheEntry, errs []error) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if len(snaps[i].hosts) != 16 || &snaps[i].hosts[0] != &snaps[0].hosts[0] || &snaps[i].usable[0] != &snaps[0].usable[0] {
			t.Errorf("caller %d did not get the shared snapshot", i)
		}
	}
	expectAtRest(t, env, coll, 1, int64(len(snaps)-1), 1)
}

// expectAtRest checks the counts once every caller has returned: the
// queries that reached the Collection, the cache's hits and misses, and
// that one entry and no flight remain.
func expectAtRest(t *testing.T, env *Env, coll *collection.Collection, queries, hits, misses int64) {
	t.Helper()
	if q, _ := coll.Stats(); q != queries {
		t.Errorf("%d Collection queries, want %d", q, queries)
	}
	if h, m := env.Cache.Stats(); h != hits || m != misses {
		t.Errorf("hits/misses = %d/%d, want %d/%d", h, m, hits, misses)
	}
	if n := len(env.Cache.flights); n != 0 || len(env.Cache.entries) != 1 {
		t.Errorf("%d flights and %d entries at rest, want 0 and 1", n, len(env.Cache.entries))
	}
}

// TestSingleFlightVirtual: callers that meet a cold cache while its first
// fetch is in flight share that fetch, and the run replays byte for byte.
func TestSingleFlightVirtual(t *testing.T) {
	const callers = 8
	run := func() []string {
		start := time.Unix(1_000_000, 0)
		vc := vclock.NewVirtualAt(start)
		env, coll := flightEnv(t, vc, 2*time.Millisecond)
		vc.StartTrace()
		vc.Run(func() {
			snaps, errs := meet(vc, env, background(callers))
			expectOneFetch(t, env, coll, snaps, errs)
		})
		if took := vc.Since(start); took != 2*time.Millisecond {
			t.Errorf("the herd took %v of virtual time, want one round trip (2ms)", took)
		}
		return vc.Trace()
	}
	first, second := run(), run()
	if len(first) == 0 || strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Errorf("traces of two runs differ:\n%s\n---\n%s", strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
}

// TestSingleFlightWall is the same meeting on the wall clock (CI runs it
// under -race): the leader's query is held open inside the Collection
// until the followers have had time to find its flight. A follower that
// is late anyway finds the stored entry, so the counts hold regardless.
func TestSingleFlightWall(t *testing.T) {
	const callers = 8
	env, coll := flightEnv(t, nil, 0)
	entered, release := holdQuery(coll)
	var snaps []hostCacheEntry
	var errs []error
	done := make(chan struct{})
	go func() {
		defer close(done)
		snaps, errs = meet(vclock.Wall, env, background(callers))
	}()
	<-entered
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-done
	expectOneFetch(t, env, coll, snaps, errs)
}

// holdQuery makes flightQuery's evaluation block, the first time any
// record is evaluated, until release is closed; entered is closed when
// that happens.
func holdQuery(coll *collection.Collection) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	coll.InjectFunc("defined", func(rec query.Record, args []attr.Value) (attr.Value, error) {
		once.Do(func() {
			close(entered)
			<-release
		})
		return attr.Bool(true), nil
	})
	return entered, release
}

// TestSingleFlightLeaderFails: a leader that runs out of time fails
// alone. Its followers do not inherit its deadline: one of them fetches
// again and all of them are served.
func TestSingleFlightLeaderFails(t *testing.T) {
	const callers = 5
	vc := vclock.NewVirtual()
	env, coll := flightEnv(t, vc, 2*time.Millisecond)
	vc.Run(func() {
		ctxs := background(callers)
		short := vc.WithDeadline(ctxs[0], vc.Now().Add(time.Millisecond)) // started first: the leader
		defer vclock.End(short)
		ctxs[0] = short
		snaps, errs := meet(vc, env, ctxs)
		if errs[0] == nil || !errors.Is(short.Err(), context.DeadlineExceeded) {
			t.Errorf("leader: error %v, context %v: want it to run out of time", errs[0], short.Err())
		}
		for i := 1; i < callers; i++ {
			if errs[i] != nil || len(snaps[i].hosts) != 16 || &snaps[i].hosts[0] != &snaps[1].hosts[0] {
				t.Errorf("follower %d: %d hosts, error %v", i, len(snaps[i].hosts), errs[i])
			}
		}
	})
	// The leader's call died on the link; one follower's reached the Collection.
	expectAtRest(t, env, coll, 1, callers-2, 2)
}

// TestSingleFlightFollowerGivesUp: a follower whose own context ends
// returns its own error; the flight, its leader and the other followers
// are not disturbed, and nothing of the follower is left behind.
func TestSingleFlightFollowerGivesUp(t *testing.T) {
	const callers = 5
	vc := vclock.NewVirtual()
	env, coll := flightEnv(t, vc, 2*time.Millisecond)
	vc.Run(func() {
		ctxs := background(callers)
		short := vc.WithDeadline(ctxs[2], vc.Now().Add(time.Millisecond))
		defer vclock.End(short)
		ctxs[2] = short
		snaps, errs := meet(vc, env, ctxs)
		if !errors.Is(errs[2], context.DeadlineExceeded) {
			t.Errorf("impatient follower: %v, want its deadline", errs[2])
		}
		for i := 0; i < callers; i++ {
			if i != 2 && (errs[i] != nil || &snaps[i].hosts[0] != &snaps[0].hosts[0]) {
				t.Errorf("caller %d: error %v, shared snapshot %v", i, errs[i], errs[i] == nil)
			}
		}
	})
	expectAtRest(t, env, coll, 1, callers-2, 1)
	if n := vc.PendingEvents(); n != 0 {
		t.Errorf("%d events still pending on the clock", n)
	}
}
