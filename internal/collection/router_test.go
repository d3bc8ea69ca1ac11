package collection

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/resilient"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

func domainMember(domain string, i uint64) loid.LOID {
	return loid.LOID{Domain: domain, Class: "Host", Instance: i}
}

// newRouterFixture builds a runtime with nShards real shards plus a
// Router over them, reporting into a private registry.
func newRouterFixture(t *testing.T, nShards int, mutate func(cfg *RouterConfig)) (*orb.Runtime, []*Collection, *Router, *telemetry.Registry) {
	t.Helper()
	rt := orb.NewRuntime("uva")
	reg := telemetry.NewRegistry()
	rt.SetMetrics(reg)
	shards := make([]*Collection, nShards)
	loids := make([]loid.LOID, nShards)
	for i := range shards {
		shards[i] = New(rt, nil)
		loids[i] = shards[i].LOID()
	}
	cfg := RouterConfig{Shards: loids}
	if mutate != nil {
		mutate(&cfg)
	}
	return rt, shards, NewRouter(rt, cfg), reg
}

func TestRouterRoutesMutationsToOwningShard(t *testing.T) {
	_, shards, r, _ := newRouterFixture(t, 2, func(cfg *RouterConfig) {
		cfg.Route = RouteByDomain(map[string]int{"east": 0, "west": 1})
	})
	ctx := context.Background()
	east := domainMember("east", 1)
	west := domainMember("west", 1)
	if err := r.Join(ctx, east, hostAttrs("Linux", "2.2", 0.1), ""); err != nil {
		t.Fatal(err)
	}
	if err := r.Join(ctx, west, hostAttrs("IRIX", "5.3", 0.9), ""); err != nil {
		t.Fatal(err)
	}
	if shards[0].Size() != 1 || shards[1].Size() != 1 {
		t.Fatalf("shard sizes = %d, %d; want 1, 1", shards[0].Size(), shards[1].Size())
	}
	// Update routes to the same shard the member joined.
	if err := r.Update(ctx, east, []attr.Pair{{Name: "host_load", Value: attr.Float(0.7)}}, ""); err != nil {
		t.Fatal(err)
	}
	recs, err := shards[0].Query(`$host_load > 0.5`)
	if err != nil || len(recs) != 1 || recs[0].Member != east {
		t.Fatalf("updated east record not on shard 0: %v, %v", recs, err)
	}
	if err := r.Leave(ctx, west, ""); err != nil {
		t.Fatal(err)
	}
	if shards[1].Size() != 0 {
		t.Fatalf("west shard size after leave = %d", shards[1].Size())
	}
}

func TestRouterQueryMergesSorted(t *testing.T) {
	_, _, r, reg := newRouterFixture(t, 4, nil)
	ctx := context.Background()
	const n = 40
	for i := uint64(1); i <= n; i++ {
		if err := r.Join(ctx, member(i), hostAttrs("Linux", "2.2", float64(i%10)/10), ""); err != nil {
			t.Fatal(err)
		}
	}
	recs, skipped, err := r.QueryPartial(ctx, `defined($host_os_name)`)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped = %d on healthy shards", skipped)
	}
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for i := 1; i < len(recs); i++ {
		if !recs[i-1].Member.Less(recs[i].Member) {
			t.Fatalf("merge not sorted at %d: %v !< %v", i, recs[i-1].Member, recs[i].Member)
		}
	}
	if got := reg.CounterValue("legion_collection_shard_skips"); got != 0 {
		t.Fatalf("shard_skips = %d", got)
	}
}

// TestRouterDegradesOnDeadShard is the headline acceptance criterion:
// one healthy shard plus one downed shard must yield the healthy
// shard's records without error, within the caller's deadline, and
// bump the skip counter.
func TestRouterDegradesOnDeadShard(t *testing.T) {
	rt := orb.NewRuntime("uva")
	reg := telemetry.NewRegistry()
	rt.SetMetrics(reg)
	healthy := New(rt, nil)
	dead := loid.LOID{Domain: "uva", Class: "Collection", Instance: 999} // never registered
	r := NewRouter(rt, RouterConfig{
		Shards:       []loid.LOID{healthy.LOID(), dead},
		ShardTimeout: 500 * time.Millisecond,
		Route:        func(loid.LOID) int { return 0 }, // members live on the healthy shard
	})
	ctx := context.Background()
	if err := r.Join(ctx, member(1), hostAttrs("Linux", "2.2", 0.1), ""); err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	start := time.Now()
	recs, skipped, err := r.QueryPartial(dctx, `defined($host_os_name)`)
	if err != nil {
		t.Fatalf("partial query failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("query blew the caller deadline: %v", elapsed)
	}
	if len(recs) != 1 || recs[0].Member != member(1) {
		t.Fatalf("records = %+v, want just member(1)", recs)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if got := reg.CounterValue("legion_collection_shard_skips"); got != 1 {
		t.Fatalf("legion_collection_shard_skips = %d, want 1", got)
	}

	// The wire-level reply carries the same marker for remote callers.
	res, err := rt.Call(ctx, r.LOID(), proto.MethodQueryCollection, proto.QueryArgs{Query: `defined($host_os_name)`})
	if err != nil {
		t.Fatal(err)
	}
	if reply := res.(proto.QueryReply); reply.SkippedShards != 1 || len(reply.Records) != 1 {
		t.Fatalf("wire reply = %+v", reply)
	}
}

// TestRouterShardTimeout: a shard that hangs past its per-shard
// deadline is skipped; the query still returns within the budget.
func TestRouterShardTimeout(t *testing.T) {
	rt := orb.NewRuntime("uva")
	healthy := New(rt, nil)
	slow := orb.NewServiceObject(rt.Mint("Collection"))
	slow.Handle(proto.MethodQueryCollection, func(ctx context.Context, _ any) (any, error) {
		select {
		case <-time.After(5 * time.Second):
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	rt.Register(slow)
	r := NewRouter(rt, RouterConfig{
		Shards:       []loid.LOID{healthy.LOID(), slow.LOID()},
		ShardTimeout: 100 * time.Millisecond,
		Route:        func(loid.LOID) int { return 0 },
	})
	ctx := context.Background()
	if err := r.Join(ctx, member(1), hostAttrs("Linux", "2.2", 0.1), ""); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	recs, skipped, err := r.QueryPartial(ctx, `defined($host_os_name)`)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hung shard stalled the query: %v", elapsed)
	}
	if len(recs) != 1 || skipped != 1 {
		t.Fatalf("recs = %d, skipped = %d; want 1, 1", len(recs), skipped)
	}
}

func TestRouterAllShardsFailed(t *testing.T) {
	rt := orb.NewRuntime("uva")
	dead1 := loid.LOID{Domain: "uva", Class: "Collection", Instance: 998}
	dead2 := loid.LOID{Domain: "uva", Class: "Collection", Instance: 999}
	r := NewRouter(rt, RouterConfig{Shards: []loid.LOID{dead1, dead2}, ShardTimeout: 200 * time.Millisecond})
	_, _, err := r.QueryPartial(context.Background(), `defined($x)`)
	if !errors.Is(err, ErrAllShardsFailed) {
		t.Fatalf("err = %v, want ErrAllShardsFailed", err)
	}
}

func TestRouterParseErrorIsLocal(t *testing.T) {
	_, _, r, reg := newRouterFixture(t, 2, nil)
	if _, _, err := r.QueryPartial(context.Background(), `$$ not a query`); err == nil {
		t.Fatal("malformed query succeeded")
	}
	if got := reg.CounterValue("legion_collection_shard_skips"); got != 0 {
		t.Fatalf("parse error counted as shard skip: %d", got)
	}
}

func TestRouterBatchSplitAndUpdateOnly(t *testing.T) {
	_, shards, r, _ := newRouterFixture(t, 2, func(cfg *RouterConfig) {
		cfg.Route = RouteByDomain(map[string]int{"east": 0, "west": 1})
	})
	ctx := context.Background()
	east := domainMember("east", 1)
	west := domainMember("west", 1)
	ghost := domainMember("west", 2) // never joined
	reply, err := r.ApplyBatch(ctx, []proto.BatchEntry{
		{Member: east, Attrs: hostAttrs("Linux", "2.2", 0.1)},
		{Member: west, Attrs: hostAttrs("IRIX", "5.3", 0.2)},
		{Member: ghost, Attrs: []attr.Pair{{Name: "host_alive", Value: attr.Bool(false)}}, UpdateOnly: true},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Applied != 2 || reply.Dropped != 1 {
		t.Fatalf("reply = %+v, want Applied 2 Dropped 1", reply)
	}
	if shards[0].Size() != 1 || shards[1].Size() != 1 {
		t.Fatalf("shard sizes = %d, %d", shards[0].Size(), shards[1].Size())
	}
	// The UpdateOnly entry for a present member does apply.
	reply, err = r.ApplyBatch(ctx, []proto.BatchEntry{
		{Member: west, Attrs: []attr.Pair{{Name: "host_alive", Value: attr.Bool(false)}}, UpdateOnly: true},
	}, "")
	if err != nil || reply.Applied != 1 {
		t.Fatalf("flag batch: %+v, %v", reply, err)
	}
	recs, _ := shards[1].Query(`$host_alive == false`)
	if len(recs) != 1 || recs[0].Member != west {
		t.Fatalf("down flag not applied to west: %+v", recs)
	}
}

// TestRouterBatchCallsShardsInOrder: a batch spanning every shard is
// forwarded shard by shard in index order on a virtual clock, run after
// run, so a seeded world replays the same calls in the same order.
func TestRouterBatchCallsShardsInOrder(t *testing.T) {
	const nShards, runs = 4, 50
	outOfOrder := 0
	for run := 0; run < runs; run++ {
		vc := vclock.NewVirtual()
		rt := orb.NewRuntime("uva")
		rt.SetMetrics(telemetry.NewRegistry())
		rt.SetClock(vc)
		loids := make([]loid.LOID, nShards)
		for i := range loids {
			loids[i] = New(rt, nil).LOID()
		}
		r := NewRouter(rt, RouterConfig{
			Shards: loids,
			Route:  func(m loid.LOID) int { return int(m.Instance) },
		})
		var mu sync.Mutex
		var called []loid.LOID
		rt.SetTracer(func(_ string, target loid.LOID, method string, _ time.Duration, _ error) {
			if method == proto.MethodUpdateCollectionBatch {
				mu.Lock()
				called = append(called, target)
				mu.Unlock()
			}
		})
		var entries []proto.BatchEntry
		for i := nShards - 1; i >= 0; i-- {
			entries = append(entries, proto.BatchEntry{Member: member(uint64(i)), Attrs: hostAttrs("Linux", "2.2", 0.1)})
		}
		vc.Run(func() {
			if _, err := r.ApplyBatch(context.Background(), entries, ""); err != nil {
				t.Fatal(err)
			}
		})
		if !slices.Equal(called, loids) {
			outOfOrder++
			t.Logf("run %d: shards called in order %v, want %v", run, called, loids)
		}
	}
	if outOfOrder > 0 {
		t.Errorf("%d of %d runs called the shards out of index order", outOfOrder, runs)
	}
}

// TestRouterDedupAcrossShards: a member double-registered out-of-band
// on two shards appears once in merged results.
func TestRouterDedupAcrossShards(t *testing.T) {
	_, shards, r, _ := newRouterFixture(t, 2, nil)
	m := member(7)
	shards[0].Join(m, hostAttrs("Linux", "2.2", 0.1), "")
	shards[1].Join(m, hostAttrs("Linux", "2.2", 0.9), "")
	recs, err := r.QueryCtx(context.Background(), `defined($host_os_name)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("duplicate member merged %d times", len(recs))
	}
}

func TestRouterShardForStable(t *testing.T) {
	_, _, r, _ := newRouterFixture(t, 4, nil)
	for i := uint64(0); i < 50; i++ {
		m := member(i)
		if r.ShardFor(m) != r.ShardFor(m) {
			t.Fatalf("routing not stable for %v", m)
		}
	}
	if len(r.Shards()) != 4 {
		t.Fatalf("Shards() = %d", len(r.Shards()))
	}
}

// TestStandaloneServicesRetryOnRuntimeClock: a Router built on a virtual
// runtime without a Retry.Clock of its own backs off on the runtime's
// clock. core.New fills it in for the Router it builds; a standalone one
// must too, or its backoff sleeps on the wall clock and takes no virtual
// time. The Enactor's half is in internal/enactor.
func TestStandaloneServicesRetryOnRuntimeClock(t *testing.T) {
	const backoff = 50 * time.Millisecond
	vc := vclock.NewVirtual()
	rt := orb.NewRuntime("uva")
	rt.SetMetrics(telemetry.NewRegistry())
	rt.SetClock(vc)
	shard := New(rt, nil)
	r := NewRouter(rt, RouterConfig{
		Shards: []loid.LOID{shard.LOID()},
		Retry:  resilient.Policy{MaxAttempts: 2, BaseDelay: backoff, Jitter: -1},
	})
	var faulted atomic.Bool
	rt.SetFaultInjector(func(l loid.LOID, _ string) error {
		if l == shard.LOID() && faulted.CompareAndSwap(false, true) {
			return orb.ErrInjectedFault
		}
		return nil
	})
	vc.Run(func() {
		t0 := vc.Now()
		if _, skipped, err := r.QueryPartial(context.Background(), "defined($host_os_name)"); err != nil || skipped != 0 {
			t.Fatalf("query: %d shards skipped, err %v; the retry should absorb one fault", skipped, err)
		}
		if took := vc.Since(t0); took != backoff {
			t.Errorf("query with one retry took %v of virtual time, want the %v backoff", took, backoff)
		}
	})
}
