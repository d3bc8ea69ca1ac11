package daemon

import (
	"context"
	"errors"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/collection"
	"legion/internal/loid"
	"legion/internal/monitor"
	"legion/internal/orb"
	"legion/internal/resilient"
)

// aliveFlag reads the daemon's liveness flag off a member's record.
func aliveFlag(t *testing.T, recs []collection.Record, member loid.LOID) (alive bool, state string) {
	t.Helper()
	for _, r := range recs {
		if r.Member != member {
			continue
		}
		m := attr.FromPairs(r.Attrs)
		a, okA := m[AttrAlive]
		s, okS := m[AttrState]
		if !okA || !okS {
			t.Fatalf("record for %v lacks liveness attrs: %+v", member, r.Attrs)
		}
		return a.BoolVal(), s.Str()
	}
	t.Fatalf("no record for %v", member)
	return false, ""
}

// TestUnreachableHostFlaggedDownThenRecovers drives the failure
// detector end to end: probes fail, the host crosses the down threshold,
// its Collection record is flagged down in place (stale attributes
// preserved), and a recovery flips it back to alive.
func TestUnreachableHostFlaggedDownThenRecovers(t *testing.T) {
	rt, c, h, _ := setup(t)
	// Single-attempt probes so each sweep is exactly one failure and the
	// test controls the count.
	d := New(rt, Config{
		Interval:   time.Hour, // sweeps driven manually
		Credential: "cred",
		Retry:      resilient.Policy{MaxAttempts: 1},
	})
	d.Watch(h.LOID())
	d.PushInto(c.LOID())
	ctx := context.Background()

	if ok := d.Sweep(ctx); ok != 1 {
		t.Fatalf("healthy sweep deposits = %d", ok)
	}
	recs, _ := c.Query(`defined($host_arch)`)
	if alive, state := aliveFlag(t, recs, h.LOID()); !alive || state != "up" {
		t.Fatalf("healthy record flagged alive=%v state=%q", alive, state)
	}

	// The host stops answering (crash/partition): probes see transport
	// faults, but calls to the Collection itself must keep working.
	rt.SetFaultInjector(func(target loid.LOID, method string) error {
		if target == h.LOID() {
			return orb.ErrInjectedFault
		}
		return nil
	})

	d.Sweep(ctx) // failure 1 of 2: below threshold, record untouched
	recs, _ = c.Query(`defined($host_arch)`)
	if alive, _ := aliveFlag(t, recs, h.LOID()); !alive {
		t.Fatal("record flagged down before reaching the threshold")
	}
	d.Sweep(ctx) // failure 2 of 2: crosses threshold, record flagged
	if st := d.live.State(h.LOID()); st != monitor.LivenessDown {
		t.Fatalf("liveness state = %v, want down", st)
	}
	recs, _ = c.Query(`defined($host_arch)`)
	if alive, state := aliveFlag(t, recs, h.LOID()); alive || state != "down" {
		t.Fatalf("dead record flagged alive=%v state=%q", alive, state)
	}
	// Stale-but-flagged: the last known attributes are still served.
	if _, ok := attr.FromPairs(recs[0].Attrs)["host_arch"]; !ok {
		t.Fatal("stale attributes were dropped from the flagged record")
	}

	// Recovery: the next successful sweep restores the alive flag.
	rt.SetFaultInjector(nil)
	if ok := d.Sweep(ctx); ok != 1 {
		t.Fatalf("recovery sweep deposits = %d", ok)
	}
	if st := d.live.State(h.LOID()); st != monitor.LivenessUp {
		t.Fatalf("liveness state after recovery = %v, want up", st)
	}
	recs, _ = c.Query(`defined($host_arch)`)
	if alive, state := aliveFlag(t, recs, h.LOID()); !alive || state != "up" {
		t.Fatalf("recovered record flagged alive=%v state=%q", alive, state)
	}
}

// TestFailedProbeRetriesWithinSweep verifies a single blip is absorbed by
// the per-probe retry (default 2 attempts) without marking the host.
func TestFailedProbeRetriesWithinSweep(t *testing.T) {
	rt, c, h, _ := setup(t)
	d := New(rt, Config{Interval: time.Hour, Credential: "cred",
		Retry: resilient.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond}})
	d.Watch(h.LOID())
	d.PushInto(c.LOID())

	failures := 0
	rt.SetFaultInjector(func(target loid.LOID, method string) error {
		if target == h.LOID() && failures == 0 {
			failures++
			return orb.ErrInjectedFault
		}
		return nil
	})
	if ok := d.Sweep(context.Background()); ok != 1 {
		t.Fatalf("sweep with one blip deposits = %d", ok)
	}
	if st := d.live.State(h.LOID()); st != monitor.LivenessUp {
		t.Fatalf("liveness after absorbed blip = %v, want up", st)
	}
	if _, errs := stats(d); errs != 0 {
		t.Fatalf("errors = %d, want 0 (blip absorbed by retry)", errs)
	}
}

// TestPermanentProbeErrorStillCountsAsFailure: a resource that answers
// with a permanent refusal-class error is still failing its probes.
func TestPermanentProbeErrorStillCountsAsFailure(t *testing.T) {
	rt, c, h, _ := setup(t)
	ghost := loid.LOID{Domain: "uva", Class: "Host", Instance: 999} // never registered
	d := New(rt, Config{Interval: time.Hour, Credential: "cred",
		Retry: resilient.Policy{MaxAttempts: 1}})
	d.Watch(h.LOID(), ghost)
	d.PushInto(c.LOID())
	ctx := context.Background()

	d.Sweep(ctx)
	d.Sweep(ctx)
	if st := d.live.State(ghost); st != monitor.LivenessDown {
		t.Fatalf("ghost state = %v, want down", st)
	}
	if st := d.live.State(h.LOID()); st != monitor.LivenessUp {
		t.Fatalf("real host state = %v, want up", st)
	}
	// The ghost never joined, so there is no record to flag — and no
	// error from trying; the real host's record is unaffected.
	if c.Size() != 1 {
		t.Fatalf("collection size = %d, want 1 (just the real host)", c.Size())
	}
}

// TestShardedFlagSurvivesShardOutage: a sweep whose batch reaches only
// some of a Router's shards has not been pushed. The shard that missed a
// down-flag reads host_alive=false once it is back, and the shard that
// stayed up keeps receiving every sweep while the other is out.
func TestShardedFlagSurvivesShardOutage(t *testing.T) {
	rt := orb.NewRuntime("uva")
	shards := []*collection.Collection{collection.New(rt, nil), collection.New(rt, nil)}
	// The Router's breakers never open, so the restored shard answers at
	// once; the daemon's keep their defaults.
	r := collection.NewRouter(rt, collection.RouterConfig{
		Shards:   []loid.LOID{shards[0].LOID(), shards[1].LOID()},
		Route:    func(m loid.LOID) int { return int(m.Instance) },
		Retry:    resilient.Policy{MaxAttempts: 1},
		Breakers: resilient.NewBreakerSet(resilient.BreakerConfig{FailureThreshold: 1 << 30}, nil),
	})
	dead, live := newFakeRes(rt, 0), newFakeRes(rt, 1) // instances 1 and 2: shards 1 and 0
	ds := &downSet{down: make(map[loid.LOID]bool)}
	rt.SetFaultInjector(func(target loid.LOID, _ string) error {
		if ds.get(target) {
			return orb.ErrInjectedFault
		}
		return nil
	})
	d := New(rt, Config{Interval: time.Hour, Credential: "cred",
		Retry: resilient.Policy{MaxAttempts: 1}})
	d.Watch(dead.LOID(), live.LOID())
	d.PushInto(r.LOID())
	ctx := context.Background()
	if ok := d.Sweep(ctx); ok != 2 {
		t.Fatalf("healthy sweep deposits = %d, want 2", ok)
	}

	// The resource dies with its shard out, so its flag crosses
	// DownAfter in a batch only shard 0 receives; the outage outlasts the
	// breaker threshold.
	ds.set(dead.LOID(), true)
	ds.set(shards[1].LOID(), true)
	for v := 1; v <= 6; v++ {
		live.set(v)
		d.Sweep(ctx)
		recs, _ := shards[0].Query(`defined($host_arch)`)
		if len(recs) != 1 || !attr.FromPairs(recs[0].Attrs)["version"].Equal(attr.Int(int64(v))) {
			t.Fatalf("outage sweep %d: shard 0 holds %+v, want version %d", v, recs, v)
		}
	}
	ds.set(shards[1].LOID(), false)
	d.Sweep(ctx)
	recs, _ := shards[1].Query(`defined($host_arch)`)
	if alive, state := aliveFlag(t, recs, dead.LOID()); alive || state != monitor.LivenessDown.String() {
		t.Fatalf("shard 1 after the outage: alive=%v state=%q, want the down-flag", alive, state)
	}
}

// TestRefusedDepositsCountAsErrors: a Collection that refuses the
// daemon's credential answers the batch but applies none of it. The
// sweep reports no deposit and counts each refused one as an error; a
// down-flag dropped for a member never deposited is not a refusal.
func TestRefusedDepositsCountAsErrors(t *testing.T) {
	rt := orb.NewRuntime("uva")
	c := collection.New(rt, func(_ collection.Op, _ loid.LOID, credential string) error {
		if credential != "right" {
			return errors.New("bad credential")
		}
		return nil
	})
	const nRes = 3
	var watched []loid.LOID
	for i := 0; i < nRes; i++ {
		watched = append(watched, newFakeRes(rt, i).LOID())
	}
	ghost := loid.LOID{Domain: "uva", Class: "Host", Instance: 999} // never registered
	watched = append(watched, ghost)
	ctx := context.Background()
	for _, tc := range []struct {
		credential string
		ok, errs   int
	}{
		{credential: "wrong", ok: 0, errs: nRes + 1},
		{credential: "right", ok: nRes, errs: 1},
	} {
		d := New(rt, Config{Interval: time.Hour, Credential: tc.credential,
			Retry: resilient.Policy{MaxAttempts: 1}})
		d.Watch(watched...)
		d.PushInto(c.LOID())
		// The first sweep fails the ghost once; the second flags it down.
		d.Sweep(ctx)
		_, before := stats(d)
		if ok := d.Sweep(ctx); ok != tc.ok {
			t.Errorf("credential %q: deposits = %d, want %d", tc.credential, ok, tc.ok)
		}
		if _, errs := stats(d); errs-before != int64(tc.errs) {
			t.Errorf("credential %q: errors = %d, want %d (refused deposits plus the ghost's probe)", tc.credential, errs, tc.errs)
		}
	}
	if c.Size() != nRes {
		t.Fatalf("collection size = %d, want %d", c.Size(), nRes)
	}
}
