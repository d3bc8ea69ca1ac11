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

// TestBatchingProperty is the satellite property test: after an
// arbitrary interleaving of sweeps (updates + down-flags) with
// concurrent flushes, each member's shard state must equal the serial
// application of that member's updates in pull order — no lost writes,
// no reordered writes, and a down-flag racing a buffered update never
// resurrects a member that was never deposited.
func TestBatchingProperty(t *testing.T) {
	for _, tc := range []struct {
		seed        int64
		batchSize   int
		parallelism int
	}{
		{seed: 1, batchSize: 4, parallelism: 8},
		{seed: 2, batchSize: 1, parallelism: 1}, // every enqueue flushes
		{seed: 3, batchSize: 1 << 20, parallelism: 4},
		{seed: 4, batchSize: 7, parallelism: 2},
	} {
		t.Run(fmt.Sprintf("seed%d_batch%d_par%d", tc.seed, tc.batchSize, tc.parallelism), func(t *testing.T) {
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
				Breakers:      resilient.NewBreakerSet(resilient.BreakerConfig{FailureThreshold: 1 << 30}, nil),
				Liveness:      monitor.NewLiveness(time.Hour, 1, nil),
				DownAfter:     1,
				Parallelism:   tc.parallelism,
				BatchInterval: time.Hour, // flushes driven manually + by size
				BatchSize:     tc.batchSize,
			})
			for _, f := range res {
				d.Watch(f.LOID())
			}
			d.PushInto(c.LOID())

			// A concurrent flusher racing the sweeps' enqueues.
			stopFlush := make(chan struct{})
			var flushWG sync.WaitGroup
			flushWG.Add(1)
			go func() {
				defer flushWG.Done()
				for {
					select {
					case <-stopFlush:
						return
					default:
						d.FlushAll(context.Background())
						time.Sleep(time.Duration(100+tc.seed*37) * time.Microsecond)
					}
				}
			}()

			// Oracle: per member, the serial application of its pulled
			// snapshots in sweep order, with the daemon's flag semantics.
			type model struct {
				attrs   map[string]attr.Value
				present bool
				flagged bool
			}
			models := make([]model, nRes)
			version := make([]int, nRes)

			const rounds = 60
			ctx := context.Background()
			for round := 0; round < rounds; round++ {
				// Mutate some resources and flip some liveness states.
				for i := 0; i < nRes; i++ {
					if rng.Intn(3) == 0 {
						version[i]++
						res[i].set(version[i])
					}
					if rng.Intn(8) == 0 {
						ds.set(res[i].LOID(), !ds.get(res[i].LOID()))
					}
				}
				d.Sweep(ctx)
				// Mirror what this sweep must have enqueued per member. A
				// sweep is one snapshot per live resource; updates to the
				// fake after Sweep returned can't have been seen.
				for i := 0; i < nRes; i++ {
					m := &models[i]
					if !ds.get(res[i].LOID()) {
						if m.attrs == nil {
							m.attrs = make(map[string]attr.Value)
						}
						m.attrs["host_arch"] = attr.String("x86")
						m.attrs["version"] = attr.Int(int64(version[i]))
						m.attrs[AttrAlive] = attr.Bool(true)
						m.attrs[AttrState] = attr.String(monitor.LivenessUp.String())
						m.present = true
						m.flagged = false
					} else if !m.flagged {
						// First failing sweep: flag once, UpdateOnly — a
						// member never deposited stays absent.
						m.flagged = true
						if m.present {
							m.attrs[AttrAlive] = attr.Bool(false)
							m.attrs[AttrState] = attr.String(monitor.LivenessDown.String())
						}
					}
				}
			}
			close(stopFlush)
			flushWG.Wait()
			d.Stop() // flush-on-shutdown drains whatever is still buffered

			recs, err := c.Query(`defined($host_arch)`)
			if err != nil {
				t.Fatal(err)
			}
			byMember := make(map[loid.LOID]map[string]attr.Value, len(recs))
			for _, r := range recs {
				byMember[r.Member] = attr.FromPairs(r.Attrs)
			}
			for i := 0; i < nRes; i++ {
				m := models[i]
				got, ok := byMember[res[i].LOID()]
				if !m.present {
					if ok {
						t.Errorf("res %d: never-alive member resurrected by a flag: %v", i, got)
					}
					continue
				}
				if !ok {
					t.Errorf("res %d: deposited member missing from shard", i)
					continue
				}
				for k, want := range m.attrs {
					if gv, ok := got[k]; !ok || !gv.Equal(want) {
						t.Errorf("res %d attr %q = %v, want %v", i, k, gv, want)
					}
				}
				delete(byMember, res[i].LOID())
			}
			if len(byMember) != 0 {
				t.Errorf("unexpected extra members: %v", byMember)
			}
		})
	}
}

// TestBatchingCutsPushCalls pins the acceptance criterion: the same
// sweep workload must cost ≥ 4× fewer Collection-bound ORB calls with
// batching on.
func TestBatchingCutsPushCalls(t *testing.T) {
	run := func(batch bool) int64 {
		rt := orb.NewRuntime("uva")
		c := collection.New(rt, nil)
		cfg := Config{Interval: time.Hour, Credential: "cred"}
		if batch {
			cfg.BatchInterval = time.Hour
			cfg.BatchSize = 1 << 20 // flush only on Stop
		}
		d := New(rt, cfg)
		for i := 0; i < 16; i++ {
			d.Watch(newFakeRes(rt, i).LOID())
		}
		d.PushInto(c.LOID())
		for s := 0; s < 5; s++ {
			d.Sweep(context.Background())
		}
		d.Stop()
		if c.Size() != 16 {
			t.Fatalf("collection size = %d, want 16 (batch=%v)", c.Size(), batch)
		}
		return d.PushCalls()
	}
	direct := run(false)
	batched := run(true)
	if direct != 16*5 {
		t.Fatalf("direct push calls = %d, want 80", direct)
	}
	if batched*4 > direct {
		t.Fatalf("batched push calls = %d, not ≥4× below %d", batched, direct)
	}
}

// TestBatchFlushRetriesAfterCollectionRecovers: a flush against an
// unreachable Collection re-queues its entries in order and the next
// flush delivers them.
func TestBatchFlushRetriesAfterCollectionRecovers(t *testing.T) {
	rt := orb.NewRuntime("uva")
	c := collection.New(rt, nil)
	f := newFakeRes(rt, 0)
	ds := &downSet{down: make(map[loid.LOID]bool)}
	rt.SetFaultInjector(func(target loid.LOID, _ string) error {
		if ds.get(target) {
			return orb.ErrInjectedFault
		}
		return nil
	})
	d := New(rt, Config{
		Interval: time.Hour, Credential: "cred",
		Retry:         resilient.Policy{MaxAttempts: 1},
		BatchInterval: time.Hour, BatchSize: 1 << 20,
	})
	d.Watch(f.LOID())
	d.PushInto(c.LOID())

	d.Sweep(context.Background())
	ds.set(c.LOID(), true) // Collection unreachable: flush must re-queue
	d.FlushAll(context.Background())
	if c.Size() != 0 {
		t.Fatalf("entries landed through a dead Collection")
	}
	_, errs := d.Stats()
	if errs == 0 {
		t.Fatal("failed flush not counted")
	}
	ds.set(c.LOID(), false)
	d.FlushAll(context.Background())
	if c.Size() != 1 {
		t.Fatalf("re-queued entries lost: size = %d", c.Size())
	}
	recs, _ := c.Query(`$version == 0`)
	if len(recs) != 1 || recs[0].Member != f.LOID() {
		t.Fatalf("recovered record: %+v", recs)
	}
}
