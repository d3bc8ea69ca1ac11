package integration

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/collection"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/resilient"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/telemetry"
)

func hostPairs(arch string, load float64) []attr.Pair {
	return []attr.Pair{
		{Name: "host_arch", Value: attr.String(arch)},
		{Name: "host_load", Value: attr.Float(load)},
	}
}

// TestRouterFederationSurvivesShardDeath is the federation satellite:
// two per-domain Collection shards behind real TCP runtimes, fronted by
// a client-side Router. One domain dies mid-run; the Router must keep
// answering with the surviving shard's records inside the query
// deadline, surface the skip to the scheduler, and the scheduler must
// still place on the live domain's hosts.
func TestRouterFederationSurvivesShardDeath(t *testing.T) {
	east := newSite(t, "east", 3, nil)
	west := newSite(t, "west", 2, nil)

	rt := orb.NewRuntime("app")
	reg := telemetry.NewRegistry()
	rt.SetMetrics(reg)
	t.Cleanup(func() { rt.Close() })
	ctx := context.Background()
	dirs := make(map[string]proto.ServicesReply)
	for _, s := range []*site{east, west} {
		rt.BindDomain(s.ms.Domain(), s.addr)
		res, err := rt.Call(ctx, proto.DirectoryLOID(s.ms.Domain()), proto.MethodLookupServices, nil)
		if err != nil {
			t.Fatalf("directory lookup for %s: %v", s.ms.Domain(), err)
		}
		dirs[s.ms.Domain()] = res.(proto.ServicesReply)
	}

	r := collection.NewRouter(rt, collection.RouterConfig{
		Shards:       []loid.LOID{dirs["east"].Collection, dirs["west"].Collection},
		ShardTimeout: time.Second,
		Retry:        resilient.Policy{MaxAttempts: 1},
		Route:        collection.RouteByDomain(map[string]int{"east": 0, "west": 1}),
	})

	// Healthy federation: one query sees both domains' hosts.
	env := &scheduler.Env{RT: rt, Collection: r.LOID(), Rand: rand.New(rand.NewSource(5))}
	hosts, skipped, err := scheduler.QueryHostsPartial(ctx, env, "defined($host_arch)")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 5 || skipped != 0 {
		t.Fatalf("healthy federation: %d hosts, %d skipped; want 5, 0", len(hosts), skipped)
	}

	// Kill west mid-run.
	west.ms.Close()

	start := time.Now()
	hosts, skipped, err = scheduler.QueryHostsPartial(ctx, env, "defined($host_arch)")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("degraded query failed outright: %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("degraded query took %v, want within the shard deadline budget", elapsed)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if len(hosts) != 3 {
		t.Fatalf("surviving records = %d, want east's 3", len(hosts))
	}
	for _, h := range hosts {
		if h.LOID.Domain != "east" {
			t.Fatalf("dead domain's record survived: %v", h.LOID)
		}
	}
	if got := reg.CounterValue("legion_collection_shard_skips"); got < 1 {
		t.Fatalf("legion_collection_shard_skips = %d, want >= 1", got)
	}

	// The scheduler still places — on live hosts only — through the
	// degraded Router.
	out, err := (scheduler.Wrapper{SchedTryLimit: 3, EnactTryLimit: 2}).Run(
		ctx, env, dirs["east"].Enactor, scheduler.IRS{NSched: 3},
		scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: dirs["east"].Classes["Worker"], Count: 2}},
			Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
		})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success {
		t.Fatalf("placement through degraded federation failed: %+v", out)
	}
	running := 0
	for _, h := range east.ms.Hosts() {
		running += h.RunningCount()
	}
	if running != 2 {
		t.Fatalf("running on east = %d, want 2", running)
	}
}

// TestRouterFederationMutationsOverTCP pushes writes through the Router
// across the wire: joins and updates land on the owning domain's shard.
func TestRouterFederationMutationsOverTCP(t *testing.T) {
	east := newSite(t, "east", 1, nil)
	west := newSite(t, "west", 1, nil)
	rt := orb.NewRuntime("app")
	t.Cleanup(func() { rt.Close() })
	ctx := context.Background()
	rt.BindDomain("east", east.addr)
	rt.BindDomain("west", west.addr)
	res, err := rt.Call(ctx, proto.DirectoryLOID("east"), proto.MethodLookupServices, nil)
	if err != nil {
		t.Fatal(err)
	}
	eastColl := res.(proto.ServicesReply).Collection
	res, err = rt.Call(ctx, proto.DirectoryLOID("west"), proto.MethodLookupServices, nil)
	if err != nil {
		t.Fatal(err)
	}
	westColl := res.(proto.ServicesReply).Collection

	r := collection.NewRouter(rt, collection.RouterConfig{
		Shards: []loid.LOID{eastColl, westColl},
		Route:  collection.RouteByDomain(map[string]int{"east": 0, "west": 1}),
	})
	sensor := loid.LOID{Domain: "west", Class: "Sensor", Instance: 42}
	if err := r.Join(ctx, sensor, hostPairs("arm", 0.2), ""); err != nil {
		t.Fatal(err)
	}
	// The record landed on west's shard, not east's.
	wres, err := rt.Call(ctx, westColl, proto.MethodQueryCollection, proto.QueryArgs{Query: `$host_arch == "arm"`})
	if err != nil {
		t.Fatal(err)
	}
	if recs := wres.(proto.QueryReply).Records; len(recs) != 1 || recs[0].Member != sensor {
		t.Fatalf("west shard records: %+v", recs)
	}
	eres, err := rt.Call(ctx, eastColl, proto.MethodQueryCollection, proto.QueryArgs{Query: `$host_arch == "arm"`})
	if err != nil {
		t.Fatal(err)
	}
	if recs := eres.(proto.QueryReply).Records; len(recs) != 0 {
		t.Fatalf("record leaked onto east shard: %+v", recs)
	}
	// A batch through the Router over TCP updates it in place.
	reply, err := orb.Invoke[proto.BatchUpdateReply](ctx, rt, r.LOID(), proto.MethodUpdateCollectionBatch, proto.BatchUpdateArgs{
		Entries: []proto.BatchEntry{{Member: sensor, Attrs: hostPairs("arm", 0.9), UpdateOnly: true}},
	})
	if err != nil || reply.Applied != 1 {
		t.Fatalf("batch over TCP: %+v, %v", reply, err)
	}
	recs, _, err := r.QueryPartial(ctx, `$host_load > 0.5`)
	if err != nil || len(recs) != 1 || recs[0].Member != sensor {
		t.Fatalf("federated query after batch: %+v, %v", recs, err)
	}
}
