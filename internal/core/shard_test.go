package core

import (
	"context"
	"testing"
	"time"

	"legion/internal/collection/daemon"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/scheduler"
	"legion/internal/vault"
)

// buildShardedMeta is buildMeta with a federated directory.
func buildShardedMeta(t *testing.T, nHosts, nShards int) *Metasystem {
	t.Helper()
	ms := New("uva", Options{Seed: 42, CollectionShards: nShards})
	v := ms.AddVault(vault.Config{Zone: "z1"})
	for i := 0; i < nHosts; i++ {
		ms.AddHost(host.Config{
			Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 1024, Zone: "z1",
			Vaults: []loid.LOID{v.LOID()},
		})
	}
	return ms
}

// TestShardedMetasystemTransparent pins the tentpole's core wiring: with
// CollectionShards > 1, hosts spread over real shards, and the entire
// placement pipeline — scheduler query through the Router, Enactor
// negotiation, instance creation — works unchanged.
func TestShardedMetasystemTransparent(t *testing.T) {
	ms := buildShardedMeta(t, 8, 4)
	if ms.Collection != nil || ms.Router == nil || len(ms.Shards) != 4 {
		t.Fatalf("sharded layout: Collection=%v Router=%v shards=%d", ms.Collection, ms.Router, len(ms.Shards))
	}
	// Every host landed on exactly one shard; the hash route spread them.
	total, nonEmpty := 0, 0
	for _, s := range ms.Shards {
		total += s.Size()
		if s.Size() > 0 {
			nonEmpty++
		}
	}
	if total != 8 {
		t.Fatalf("records across shards = %d, want 8", total)
	}
	if nonEmpty < 2 {
		t.Fatalf("hash routing degenerated to %d shard(s)", nonEmpty)
	}

	ctx := context.Background()
	hosts, skipped, err := scheduler.QueryHostsPartial(ctx, ms.Env(), "defined($host_arch)")
	if err != nil || skipped != 0 || len(hosts) != 8 {
		t.Fatalf("federated query: %d hosts, %d skipped, %v", len(hosts), skipped, err)
	}

	class := ms.DefineClass("Worker", nil)
	out, err := ms.PlaceApplication(ctx, scheduler.IRS{NSched: 3}, workerReq(class.LOID(), 3))
	if err != nil || !out.Success {
		t.Fatalf("placement over sharded directory: %+v, %v", out, err)
	}

	// Host push updates route through the Router to the owning shard.
	h := ms.Hosts()[0]
	h.SetExternalLoad(0.9)
	h.Reassess(ctx)
	hosts, err = scheduler.QueryHosts(ctx, ms.Env(), "$host_load > 0.5")
	if err != nil || len(hosts) != 1 || hosts[0].LOID != h.LOID() {
		t.Fatalf("pushed update not visible through Router: %+v, %v", hosts, err)
	}
}

// TestShardedDaemonBatchedFlow runs the batched Data Collection Daemon
// against the Router: one coalesced batch call fans out per shard and
// every host's record stays fresh.
func TestShardedDaemonBatchedFlow(t *testing.T) {
	ms := buildShardedMeta(t, 6, 2)
	d := ms.NewDaemon(daemon.Config{BatchInterval: time.Hour}) // flush via Stop
	ctx := context.Background()
	d.Sweep(ctx)
	d.Sweep(ctx)
	if calls := d.PushCalls(); calls != 0 {
		t.Fatalf("batched daemon made %d direct push calls before flush", calls)
	}
	d.Stop() // flush-on-shutdown delivers both sweeps' entries
	if calls := d.PushCalls(); calls == 0 || calls > 2 {
		// One batch call per shard with buffered entries (≤ 2 shards).
		t.Fatalf("flush used %d push calls, want 1..2", calls)
	}
	hosts, err := scheduler.QueryHosts(ctx, ms.Env(), "$host_alive == true")
	if err != nil || len(hosts) != 6 {
		t.Fatalf("after batched flush: %d alive hosts, %v", len(hosts), err)
	}
}
