package daemon

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/collection"
	"legion/internal/loid"
	"legion/internal/monitor"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/resilient"
	"legion/internal/vclock"
)

// fakeRes is a scripted resource: it answers get_attributes with
// whatever the test last set, so the oracle knows exactly which
// snapshot every sweep pulled.
type fakeRes struct {
	*orb.ServiceObject
	mu    sync.Mutex
	attrs []attr.Pair
}

func newFakeRes(rt *orb.Runtime, i int) *fakeRes {
	f := &fakeRes{ServiceObject: orb.NewServiceObject(loid.LOID{Domain: "uva", Class: "Fake", Instance: uint64(i + 1)})}
	f.set(0)
	f.Handle(proto.MethodGetAttributes, func(_ context.Context, _ any) (any, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		return proto.AttributesReply{Attrs: append([]attr.Pair(nil), f.attrs...)}, nil
	})
	rt.Register(f)
	return f
}

func (f *fakeRes) set(version int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attrs = []attr.Pair{
		{Name: "host_arch", Value: attr.String("x86")},
		{Name: "version", Value: attr.Int(int64(version))},
	}
}

// downSet is a race-safe resource→down map consulted by one fault
// injector installed before any sweep (SetFaultInjector itself must not
// race in-flight calls).
type downSet struct {
	mu   sync.Mutex
	down map[loid.LOID]bool
}

func (ds *downSet) set(res loid.LOID, down bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.down[res] = down
}

func (ds *downSet) get(res loid.LOID) bool {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.down[res]
}

// TestBatchingProperty models the sweep: over an arbitrary sequence of
// sweeps, with resources changing, dying and reviving and the Collection
// itself unreachable for some rounds, each member's record must equal
// the serial application of the pushes that got through, in sweep
// order. A failed push loses nothing for good: a deposit lost with it is
// superseded by the next sweep's, and a down-flag lost with it is sent
// again. A down-flag never creates a member that was never deposited.
func TestBatchingProperty(t *testing.T) {
	resent := 0 // down-flags the model saw re-sent after a failed push
	for _, tc := range []struct {
		seed        int64
		parallelism int
	}{
		{seed: 1, parallelism: 8},
		{seed: 2, parallelism: 1},
		{seed: 3, parallelism: 4},
		{seed: 4, parallelism: 2},
	} {
		t.Run(fmt.Sprintf("seed%d_par%d", tc.seed, tc.parallelism), func(t *testing.T) {
			rt := orb.NewRuntime("uva")
			c := collection.New(rt, nil)
			const nRes = 12
			rng := rand.New(rand.NewSource(tc.seed))

			res := make([]*fakeRes, nRes)
			ds := &downSet{down: make(map[loid.LOID]bool)}
			for i := range res {
				res[i] = newFakeRes(rt, i)
				if i >= nRes-2 {
					ds.set(res[i].LOID(), true) // born dead: must never appear
				}
			}
			rt.SetFaultInjector(func(target loid.LOID, _ string) error {
				if ds.get(target) {
					return orb.ErrInjectedFault
				}
				return nil
			})

			d := New(rt, Config{
				Interval:   time.Hour, // sweeps driven manually
				Credential: "cred",
				Retry:      resilient.Policy{MaxAttempts: 1},
				// The oracle models the daemon, not the breakers: an open
				// breaker would keep a revived resource failing fast and
				// diverge the model, so breakers effectively never open.
				Breakers:    resilient.NewBreakerSet(resilient.BreakerConfig{FailureThreshold: 1 << 30}, nil),
				Liveness:    monitor.NewLiveness(time.Hour, 1, nil),
				DownAfter:   1,
				Parallelism: tc.parallelism,
			})
			for _, f := range res {
				d.Watch(f.LOID())
			}
			d.PushInto(c.LOID())

			// Oracle: per member, the record the Collection holds, and
			// whether the daemon counts it as flagged down.
			type model struct {
				attrs   map[string]attr.Value
				flagged bool
				lost    bool // its down-flag went out with a failed push
			}
			models := make([]model, nRes)
			version := make([]int, nRes)
			unreachable := false // the Collection, this round

			const rounds = 80
			ctx := context.Background()
			for round := 0; round < rounds; round++ {
				// Mutate some resources and flip some liveness states; the
				// last rounds keep the Collection up so it recovers.
				for i := 0; i < nRes; i++ {
					if rng.Intn(3) == 0 {
						version[i]++
						res[i].set(version[i])
					}
					if rng.Intn(8) == 0 {
						ds.set(res[i].LOID(), !ds.get(res[i].LOID()))
					}
				}
				switch {
				case round >= rounds-5:
					unreachable = false // recovered for the last rounds
				case rng.Intn(5) == 0:
					unreachable = !unreachable
				}
				ds.set(c.LOID(), unreachable)
				d.Sweep(ctx)
				// Mirror the sweep's one batch: a deposit per live
				// resource, a down-flag per resource newly down.
				for i := 0; i < nRes; i++ {
					m := &models[i]
					switch {
					case !ds.get(res[i].LOID()):
						m.flagged, m.lost = false, false
						if unreachable {
							continue
						}
						m.attrs = map[string]attr.Value{
							"host_arch": attr.String("x86"),
							"version":   attr.Int(int64(version[i])),
							AttrAlive:   attr.Bool(true),
							AttrState:   attr.String(monitor.LivenessUp.String()),
						}
					case !m.flagged:
						if unreachable {
							m.lost = true // unmarked: the next sweep sends it again
							continue
						}
						m.flagged = true
						if m.attrs != nil { // UpdateOnly: no member, no record
							m.attrs[AttrAlive] = attr.Bool(false)
							m.attrs[AttrState] = attr.String(monitor.LivenessDown.String())
							if m.lost {
								resent++
							}
						}
						m.lost = false
					}
				}
				if !unreachable {
					checkRecords(t, round, c, res, func(i int) map[string]attr.Value { return models[i].attrs })
				}
			}
			if unreachable {
				t.Fatal("the Collection never recovered; the model checks nothing at the end")
			}
		})
	}
	if resent == 0 {
		t.Error("no seed re-sent a down-flag lost with a failed push; the outage rounds test nothing")
	}
}

// checkRecords fails t unless c holds exactly one record per resource
// whose want is non-nil, with exactly those attributes.
func checkRecords(t *testing.T, round int, c *collection.Collection, res []*fakeRes, want func(i int) map[string]attr.Value) {
	t.Helper()
	recs, err := c.Query(`defined($host_arch)`)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[loid.LOID]map[string]attr.Value, len(recs))
	for _, r := range recs {
		got[r.Member] = attr.FromPairs(r.Attrs)
	}
	for i, f := range res {
		w, g := want(i), got[f.LOID()]
		delete(got, f.LOID())
		switch {
		case w == nil && g != nil:
			t.Fatalf("round %d: res %d was never deposited, yet has a record: %v", round, i, g)
		case w != nil && g == nil:
			t.Fatalf("round %d: res %d was deposited, yet has no record", round, i)
		case len(g) != len(w):
			t.Fatalf("round %d: res %d record %v, want %v", round, i, g, w)
		}
		for k, wv := range w {
			if gv, ok := g[k]; !ok || !gv.Equal(wv) {
				t.Fatalf("round %d: res %d attr %q = %v, want %v", round, i, k, gv, wv)
			}
		}
	}
	if len(got) != 0 {
		t.Fatalf("round %d: records for unknown members: %v", round, got)
	}
}

// TestBatchingCutsPushCalls: a sweep costs one push call per Collection,
// however many resources it pulled from.
func TestBatchingCutsPushCalls(t *testing.T) {
	const nRes, collections, sweeps = 16, 2, 5
	rt := orb.NewRuntime("uva")
	d := New(rt, Config{Interval: time.Hour, Credential: "cred"})
	for i := 0; i < nRes; i++ {
		d.Watch(newFakeRes(rt, i).LOID())
	}
	colls := make([]*collection.Collection, collections)
	for i := range colls {
		colls[i] = collection.New(rt, nil)
		d.PushInto(colls[i].LOID())
	}
	for s := 0; s < sweeps; s++ {
		if ok := d.Sweep(context.Background()); ok != nRes*collections {
			t.Fatalf("sweep %d deposits = %d, want %d", s, ok, nRes*collections)
		}
	}
	for i, c := range colls {
		if c.Size() != nRes {
			t.Fatalf("collection %d size = %d, want %d", i, c.Size(), nRes)
		}
	}
	if got := d.PushCalls(); got != sweeps*collections {
		t.Fatalf("push calls = %d, want %d (one per Collection per sweep)", got, sweeps*collections)
	}
}

// TestSweepLandsWithinCallTimeout holds the currency bound the one push
// per sweep costs: a record lands when the sweep's slowest probe
// returns, not when its own does, and so no later than CallTimeout after
// the sweep began, however long a hung resource stays hung.
func TestSweepLandsWithinCallTimeout(t *testing.T) {
	vc := vclock.NewVirtual()
	rt := orb.NewRuntime("uva")
	rt.SetClock(vc)
	c := collection.New(rt, nil)
	d := New(rt, Config{Interval: time.Hour, Credential: "cred"})
	const nRes = 4
	for i := 0; i < nRes; i++ {
		d.Watch(newFakeRes(rt, i).LOID())
	}
	hung := orb.NewServiceObject(loid.LOID{Domain: "uva", Class: "Fake", Instance: 99})
	hung.Handle(proto.MethodGetAttributes, func(ctx context.Context, _ any) (any, error) {
		return nil, vc.Sleep(ctx, time.Hour)
	})
	rt.Register(hung)
	d.Watch(hung.LOID())
	d.PushInto(c.LOID())
	const callTimeout = 10 * time.Second // the default

	vc.Run(func() {
		start := vc.Now()
		swept := vc.NewGroup()
		swept.Add(1)
		vc.Go(func() {
			defer swept.Done()
			if ok := d.Sweep(context.Background()); ok != nRes {
				t.Errorf("sweep deposits = %d, want %d", ok, nRes)
			}
		})
		_ = vc.Sleep(context.Background(), callTimeout/2)
		if n := c.Size(); n != 0 {
			t.Errorf("%d records landed before the sweep's slowest probe returned", n)
		}
		_ = swept.Wait(context.Background())
		end := vc.Now()
		if took := end.Sub(start); took > callTimeout {
			t.Errorf("sweep took %v, past the %v CallTimeout", took, callTimeout)
		}
		recs, err := c.Query(`defined($host_arch)`)
		if err != nil || len(recs) != nRes {
			t.Fatalf("records after the sweep: %d, %v; want %d", len(recs), err, nRes)
		}
		for _, r := range recs {
			if !r.UpdatedAt.Equal(end) {
				t.Errorf("%v landed at +%v, want the sweep's end +%v", r.Member, r.UpdatedAt.Sub(start), end.Sub(start))
			}
		}
	})
}
