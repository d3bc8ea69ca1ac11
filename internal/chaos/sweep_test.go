package chaos

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/classobj"
	"legion/internal/collection/daemon"
	"legion/internal/core"
	"legion/internal/economy"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/rebalance"
	"legion/internal/resilient"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// sweepSeeds is how many worlds TestWorldSweep builds.
const sweepSeeds = 200

// TestWorldSweep builds one virtual-time world per seed with every
// subsystem on at once, wounds it with a fault schedule drawn from the
// seed while an open-loop storm runs through it, quiesces it, and holds
// it to the conservation laws in invariants. Admission control is on for
// odd seeds and off for even ones; on half the seeds of either kind
// (seed%4 >= 2) every argument, reply and error of every call
// round-trips the wire codec. Every fifth seed, half of them with
// admission on, runs twice and must fire the same events and record the
// same spans both times. A failing seed replays alone by its name:
//
//	go test ./internal/chaos -run 'TestWorldSweep/seed=137$'
//
// Once every seed has run, the sweep checks that the seeds between them
// reached each path it exists to test, so that it cannot pass by testing
// nothing.
func TestWorldSweep(t *testing.T) {
	var (
		mu    sync.Mutex
		total sweepTally
		ran   int
	)
	t.Cleanup(func() {
		if ran < sweepSeeds {
			return // a -run filter, or a seed that stopped early
		}
		t.Logf("%d seeds: %s", ran, total)
		for _, c := range total.coverage() {
			if c.n == 0 {
				t.Errorf("no seed reached %s", c.what)
			}
		}
	})
	for seed := int64(1); seed <= sweepSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			got := sweepWorld(t, seed)
			if seed%5 == 0 {
				again := sweepWorld(t, seed)
				if again.trace != got.trace {
					t.Errorf("the same seed fired different events: trace sha256 %s, then %s", got.trace, again.trace)
				}
				if again.spans != got.spans {
					t.Errorf("the same seed recorded different spans: sha256 %s, then %s", got.spans, again.spans)
				}
			}
			mu.Lock()
			total.add(got)
			ran++
			mu.Unlock()
		})
	}
}

// sweepTally is what one world did, summed over the sweep.
type sweepTally struct {
	shed, crashFailures, stranded    int
	reactive, predictive, migrations int
	partials, reuses                 int
	batchStarts, stopWaits           int
	trace                            string // sha256 of the engine's event trace
	spans                            string // spanDigest of the world's span log
}

func (a *sweepTally) add(b sweepTally) {
	a.shed += b.shed
	a.crashFailures += b.crashFailures
	a.stranded += b.stranded
	a.reactive += b.reactive
	a.predictive += b.predictive
	a.migrations += b.migrations
	a.partials += b.partials
	a.reuses += b.reuses
	a.batchStarts += b.batchStarts
	a.stopWaits += b.stopWaits
}

func (a sweepTally) coverage() []struct {
	what string
	n    int
} {
	return []struct {
		what string
		n    int
	}{
		{"a shed", a.shed},
		{"a placement failed during a crash episode", a.crashFailures},
		{"a stranded teardown", a.stranded},
		{"a reactive move", a.reactive},
		{"a predictive move", a.predictive},
		{"a completed migration", a.migrations},
		{"a partial Router query", a.partials},
		{"a reused ParamSpace token", a.reuses},
		{"an object started on a batch host", a.batchStarts},
		{"a rebalancer Stop that waited out an episode", a.stopWaits},
	}
}

func (a sweepTally) String() string {
	var b strings.Builder
	for i, c := range a.coverage() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %d", c.what, c.n)
	}
	return b.String()
}

// countingPolicy counts the moves a rebalance policy plans.
type countingPolicy struct {
	rebalance.Policy
	moves atomic.Int64
}

func (p *countingPolicy) Plan(ctx context.Context, ev proto.NotifyArgs, ms *core.Metasystem, classes []*classobj.Class) ([]rebalance.Move, error) {
	moves, err := p.Policy.Plan(ctx, ev, ms, classes)
	p.moves.Add(int64(len(moves)))
	return moves, err
}

// The sweep world's shape.
const (
	sweepHosts       = 4
	sweepVaults      = 2
	sweepRequests    = 60
	sweepLongLived   = 4
	breakerThreshold = 5 // resilient's default FailureThreshold
)

// sweepTenants share the storm; the first can afford only a few
// reservations at once, so budget refusals roll back too.
var sweepTenants = []string{"astro", "bio"}

// sweepWorld runs one seed's world and returns what it did. Everything
// random in it comes from the seed: the world's placements and faults
// (NewWorld), the storm's arrivals and choices (sim.Drive), the retry
// jitter, and the fault schedule below.
func sweepWorld(t *testing.T, seed int64) (tally sweepTally) {
	rng := rand.New(rand.NewSource(seed))
	admission := seed%2 == 1
	vc := vclock.NewVirtual()
	epoch := vc.Now()
	reg := telemetry.NewRegistry()
	opts := core.Options{
		Seed:    seed,
		Metrics: reg,
		Clock:   vc,
		Retry: resilient.Policy{
			MaxAttempts: 3, BaseDelay: time.Millisecond,
			Budget: 2 * time.Second, AttemptTimeout: time.Second,
			Clock: vc, JitterRand: resilient.NewLockedRand(seed),
		},
		CollectionShards: 2,
		Economy:          true,
	}
	if admission {
		opts.MaxInFlight, opts.AdmissionQueue, opts.ShedWatermark = 4, 8, 0.8
	}
	hosts := sim.UniformSpecs(sweepHosts, 4)
	for i := range hosts {
		hosts[i].Price = 0.25 * float64(i+1)
	}
	// Two seeds in three put one host behind a batch queue. The choice
	// reads the seed, not rng, so each seed's other draws stay the same.
	if seed%3 != 1 {
		hosts[seed/3%sweepHosts].Batch = true
	}
	w, err := NewWorld(seed, sim.Spec{Domain: "uva", Options: opts, Hosts: hosts, Vaults: sweepVaults})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	site := w.Sites[0]
	ms, rt := site.MS, site.MS.Runtime()
	rt.SetLoopbackCodec(seed%4 >= 2)
	worker, _ := ms.Class("Worker")
	stateful := ms.DefineClass("Stateful", nil)
	tasks := ms.DefineClass("Task", nil)

	led := ms.Ledger()
	budgets := map[string]economy.Credits{
		"lease":         economy.ToCredits(1e6),
		sweepTenants[0]: economy.ToCredits(2),
		sweepTenants[1]: economy.ToCredits(1e6),
	}
	for tenant, b := range budgets {
		led.Open(tenant, b)
	}
	// Call failures other than sheds bound how many breakers may open,
	// and lost cancels how many grants may wait for the reaper.
	var failures, lostCancels, batchStarts atomic.Int64
	batch := map[loid.LOID]bool{}
	for i, h := range ms.Hosts() {
		batch[h.LOID()] = hosts[i].Batch
	}
	rt.SetTracer(func(_ string, target loid.LOID, method string, _ time.Duration, err error) {
		if err == nil && method == proto.MethodStartObject && batch[target] {
			batchStarts.Add(1)
		}
		if err != nil && !errors.Is(err, orb.ErrOverload) {
			failures.Add(1)
			if method == proto.MethodCancelReservation {
				lostCancels.Add(1)
			}
		}
	})

	reactive := &countingPolicy{Policy: rebalance.NewLeastLoaded()}
	forecast := &rebalance.Predictive{Watermark: 0.8, MaxShedPerEvent: 1}
	predictive := &countingPolicy{Policy: forecast}
	var rebalancers []*rebalance.Rebalancer
	for _, p := range []*countingPolicy{reactive, predictive} {
		rebalancers = append(rebalancers, rebalance.New(ms, rebalance.Config{
			Classes: []*classobj.Class{stateful}, Policy: p, Cooldown: -1,
		}))
	}
	d := ms.NewDaemon(daemon.Config{HistoryLen: 4})
	gens := []scheduler.Generator{scheduler.Random{}, scheduler.LoadAware{}, scheduler.CostAware{}, scheduler.IRS{NSched: 3}}
	gen := gens[rng.Intn(len(gens))]
	arrivals := sim.ArrivalProcess(rng.Intn(2))
	w.Slow(site, 2*time.Millisecond, time.Millisecond)

	vc.StartTrace()
	vc.Run(func() {
		ctx := context.Background()
		// Long-lived instances with state, placed and charged before any
		// fault; the rebalancers move them about for the rest of the run.
		var leases []uint64
		var longLived []loid.LOID
		for i := 0; i < sweepLongLived; i++ {
			out, err := ms.PlaceApplication(ctx, scheduler.Random{}, scheduler.Request{
				Classes: []scheduler.ClassRequest{{Class: stateful.LOID(), Count: 1}},
				Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour, Tenant: "lease"},
			})
			if err != nil || !out.Success {
				t.Errorf("placing long-lived instance %d on a healthy world: %v", i, err)
				return
			}
			inst := out.Instances[0][0]
			if _, err := rt.Call(ctx, inst, "set", []string{"k", fmt.Sprint("v", i)}); err != nil {
				t.Errorf("set state: %v", err)
				return
			}
			leases = append(leases, out.RequestID)
			longLived = append(longLived, inst)
		}
		if err := rebalancers[0].Start(); err != nil {
			t.Error(err)
			return
		}
		rebalancers[1].StartForecastScan(40*time.Millisecond, forecast)
		if err := ms.WatchLoad(ctx, 0.8); err != nil {
			t.Errorf("watch load: %v", err)
			return
		}

		// The storm, the fault schedule and a parameter-space study, all
		// at once.
		var crashed atomic.Bool
		duringCrash := make([]bool, sweepRequests)
		placed := make([]bool, sweepRequests)
		var study scheduler.ParamSpaceResult
		rest := vc.NewGroup()
		rest.Add(2)
		vc.Go(func() {
			defer rest.Done()
			faultSchedule(ctx, w, d, rng, &crashed)
		})
		vc.Go(func() {
			defer rest.Done()
			study, _ = scheduler.ParamSpace{Slots: 2, ReuseCap: 3}.Run(ctx, ms.Env(), tasks, 8, nil)
		})
		priorities := []int{0, 0, 1}
		res := sim.Drive(ctx, ms, worker, sim.DriverConfig{
			Rate:        400,
			Requests:    sweepRequests,
			Arrivals:    arrivals,
			Seed:        seed,
			Deadline:    120 * time.Millisecond,
			SnapshotTTL: 20 * time.Millisecond,
			Generator:   gen,
			Spec: func(i int) sched.ReservationSpec {
				duringCrash[i] = crashed.Load()
				return sched.ReservationSpec{
					Share: true, Reuse: true, Duration: time.Hour,
					Priority: priorities[i%len(priorities)],
					Tenant:   sweepTenants[i%len(sweepTenants)],
				}
			},
			Observe: func(i int, _ *scheduler.Outcome) { placed[i] = true },
		})
		_ = rest.Wait(ctx)

		// Quiesce. With the faults healed every call is instant, so a
		// tenth of a second drains whatever was in flight. Seeds with
		// seed%8 < 4 stop the rebalancers first, the instant the faults
		// heal, so a Stop may land mid-episode with every subsystem on
		// and must wait it out on the clock; the others stop them idle,
		// after the quiet. The choice reads the seed, not rng, and is
		// independent of admission (odd seeds) and the codec (seed%4 >= 2).
		w.HealAll()
		stopEarly := seed%8 < 4
		if stopEarly {
			before := vc.Now()
			for _, r := range rebalancers {
				r.Stop()
			}
			if vc.Now().After(before) {
				tally.stopWaits = 1
			}
		}
		_ = vc.Sleep(ctx, 100*time.Millisecond)
		if !stopEarly {
			for _, r := range rebalancers {
				r.Stop()
			}
		}

		tally.shed, tally.stranded = res.Shed, res.Stranded
		if !admission { // with admission on, a request that did not place may have been shed
			for i := range duringCrash {
				if duringCrash[i] && !placed[i] {
					tally.crashFailures++
				}
			}
		}
		tally.reactive = int(reactive.moves.Load())
		tally.predictive = int(predictive.moves.Load())
		tally.migrations = int(reg.CounterValue("legion_rebalance_migrations_total", "result", "ok"))
		tally.partials = int(reg.CounterValue("legion_collection_router_partial_total"))
		tally.batchStarts = int(batchStarts.Load())
		for _, n := range study.PerToken {
			if n > 1 {
				tally.reuses++
			}
		}

		invariants(t, vc, sweptWorld{
			w: w, res: res, admission: admission,
			failures: failures.Load(), lostCancels: lostCancels.Load(),
			worker: worker, tasks: tasks, stateful: stateful,
			longLived: longLived, leases: leases, budgets: budgets,
		})
	})
	tally.trace = fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(vc.Trace(), "\n"))))
	tally.spans = spanDigest(t, epoch, reg.Spans())
	return tally
}

// spanDigest is the sha256 of a virtual run's span tree: one line per
// span, "name runtime start duration parent err", with start measured
// from the clock's epoch, the parent named rather than numbered, and the
// lines sorted, so that neither the process-global span IDs nor the
// order concurrent spans finished in enters it. It fails t if the log's
// ring has overwritten a span, which would hide a difference.
func spanDigest(t *testing.T, epoch time.Time, log *telemetry.SpanLog) string {
	spans := log.Snapshot()
	if n := log.Total(); int64(len(spans)) != n {
		t.Errorf("span log kept %d of %d spans; the digest would miss the rest", len(spans), n)
	}
	names := make(map[uint64]string, len(spans))
	for _, s := range spans {
		names[s.SpanID] = s.Name
	}
	lines := make([]string, len(spans))
	for i, s := range spans {
		parent := "-"
		if s.ParentID != 0 {
			if parent = names[s.ParentID]; parent == "" {
				parent = "?"
			}
		}
		lines[i] = fmt.Sprintf("%s %s %v %v %s %q", s.Name, s.Runtime, s.Start.Sub(epoch), s.Duration, parent, s.Err)
	}
	sort.Strings(lines)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n"))))
}

// faultSchedule wounds w for a few hundred virtual milliseconds while the
// storm runs, drawing every choice from rng: flaky links everywhere,
// flaky migration steps and shard queries, one host or vault crashed at a
// time, slow-link spells, and a load swing every step that heats one host
// past the overload trigger and feeds the daemon's load history. It
// revives and cools everything before it returns.
func faultSchedule(ctx context.Context, w *World, d *daemon.Daemon, rng *rand.Rand, crashed *atomic.Bool) {
	site := w.Sites[0]
	ms, rt := site.MS, site.MS.Runtime()
	hosts, vaults := ms.Hosts(), ms.Vaults()
	w.Flaky(rt, 0.02+0.04*rng.Float64())
	methodRate := 0.1 + 0.15*rng.Float64()
	for _, h := range hosts {
		w.FlakyMethod(rt, h.LOID(), proto.MethodStartObject, methodRate)
		w.FlakyMethod(rt, h.LOID(), proto.MethodDeactivateObject, methodRate)
	}
	for _, v := range vaults {
		w.FlakyMethod(rt, v.LOID(), proto.MethodStoreOPR, methodRate)
		w.FlakyMethod(rt, v.LOID(), proto.MethodDeleteOPR, methodRate)
	}
	for _, shard := range ms.Shards {
		w.FlakyMethod(rt, shard.LOID(), proto.MethodQueryCollection, methodRate)
	}
	var revive func()
	for step := 0; step < 12; step++ {
		if rt.Clock().Sleep(ctx, 25*time.Millisecond) != nil {
			break
		}
		hot := rng.Intn(len(hosts))
		for i, h := range hosts {
			load := 0.2 * rng.Float64()
			if i == hot {
				load = 0.95
			}
			h.SetExternalLoad(load)
		}
		ms.ReassessAll(ctx)
		d.Sweep(ctx)
		switch {
		case revive != nil && rng.Intn(3) == 0:
			revive()
			revive = nil
			crashed.Store(false)
		case revive == nil && rng.Intn(3) == 0:
			if rng.Intn(2) == 0 {
				revive = w.CrashHost(site, rng.Intn(len(hosts)))
			} else {
				revive = w.CrashVault(site, rng.Intn(len(vaults)))
			}
			crashed.Store(true)
		}
		if rng.Intn(4) == 0 {
			w.Slow(site, 6*time.Millisecond, 3*time.Millisecond)
		} else {
			w.Slow(site, 2*time.Millisecond, time.Millisecond)
		}
	}
	if revive != nil {
		revive()
		crashed.Store(false)
	}
	for _, h := range hosts {
		h.SetExternalLoad(0.1)
	}
	ms.ReassessAll(ctx)
}

// sweptWorld is what invariants needs of a quiesced sweep world.
type sweptWorld struct {
	w         *World
	res       *sim.DriverResult
	admission bool
	// failures counts calls that failed other than by a shed, and
	// lostCancels the cancel_reservation calls among them.
	failures, lostCancels int64
	// worker is the storm's class, tasks the study's, and stateful the
	// long-lived instances' (placed under leases, with state "v<i>").
	worker, tasks, stateful *classobj.Class
	longLived               []loid.LOID
	leases                  []uint64
	budgets                 map[string]economy.Credits
}

// invariants holds a quiesced world to the conservation laws, with
// checks the repo already has, then tears it down and checks what
// teardown must leave: no charge, no reservation, no running instance.
// It runs on the world's clock.
func invariants(t *testing.T, vc *vclock.Virtual, s sweptWorld) {
	ctx := context.Background()
	site := s.w.Sites[0]
	ms, rt := site.MS, site.MS.Runtime()
	res := s.res

	// Every request is accounted for, and sheds only where a gate exists.
	if res.Offered != sweepRequests || res.Succeeded+res.Shed+res.Failed != res.Offered {
		t.Errorf("outcome accounting: offered %d, %d+%d+%d = %d",
			res.Offered, res.Succeeded, res.Shed, res.Failed, res.Succeeded+res.Shed+res.Failed)
	}
	byPriority := 0
	for _, n := range res.ShedByPriority {
		byPriority += n
	}
	if byPriority != res.Shed {
		t.Errorf("shed by priority %v sums to %d, want shed %d", res.ShedByPriority, byPriority, res.Shed)
	}
	if !s.admission && res.Shed != 0 {
		t.Errorf("no admission gate, yet %d requests shed", res.Shed)
	}
	// A breaker opens after breakerThreshold failed calls in a row, and a
	// shed is not a failure. The faults are healed within a virtual
	// second, inside the default 2 s cooldown, so no half-open probe
	// re-opens a breaker on a single failure.
	if opened := ms.Runtime().Metrics().CounterValue("legion_breaker_transitions_total", "to", "open"); opened*breakerThreshold > s.failures {
		t.Errorf("%d breakers opened on %d failed calls", opened, s.failures)
	}

	// Every storm instance was torn down exactly once, except the ones
	// whose teardown call failed.
	if left := s.worker.Instances(); len(left) != res.Stranded {
		t.Errorf("%d storm instances left, %d teardowns failed", len(left), res.Stranded)
	}

	// Every long-lived instance runs exactly once, where its class says,
	// with its state, and no migration leaked a token or an OPR. A
	// one-shot grant whose cancel was lost is reaped once its
	// confirmation times out, so until then each leaked token must have
	// a lost cancel to answer for it, and a minute later none is left.
	for _, inst := range s.longLived {
		if err := ms.EnsureRunning(ctx, s.stateful, inst); err != nil {
			t.Errorf("EnsureRunning(%v): %v", inst, err)
		}
	}
	a := ms.AuditMigrations(s.stateful)
	if int64(a.LeakedTokens) > s.lostCancels {
		t.Errorf("%d one-shot tokens back nothing, and only %d cancels were lost", a.LeakedTokens, s.lostCancels)
	}
	if a.LeakedTokens = 0; !a.Clean() {
		t.Errorf("migration audit: %v", a)
	}
	for i, inst := range s.longLived {
		if got, err := rt.Call(ctx, inst, "get", "k"); err != nil || got != fmt.Sprint("v", i) {
			t.Errorf("instance %v state: %v %v", inst, got, err)
		}
	}
	_ = vc.Sleep(ctx, time.Minute)
	if a := ms.AuditMigrations(s.stateful); !a.Clean() {
		t.Errorf("migration audit a minute on: %v", a)
	}

	// Tear everything down, and outlive every reservation: a shared one
	// whose cancel was lost is reclaimed only when it expires.
	for _, c := range []*classobj.Class{s.worker, s.tasks, s.stateful} {
		for _, inst := range c.Instances() {
			if err := c.DestroyInstance(ctx, inst); err != nil {
				t.Errorf("destroy %v: %v", inst, err)
			}
		}
	}
	for _, id := range s.leases {
		if err := ms.Enactor.CancelReservations(ctx, id); err != nil {
			t.Errorf("cancel lease %d: %v", id, err)
		}
	}
	_ = vc.Sleep(ctx, time.Hour+time.Minute)
	// One more reservation runs the Enactor's sweep of episodes older
	// than its request TTL, refunding any a lost reply orphaned. An empty
	// request list is refused after the sweep and holds nothing.
	if fb := ms.Enactor.MakeReservations(ctx, sched.RequestList{}); fb.Reason != sched.FailureMalformed {
		t.Errorf("empty request list: %+v, want refused as malformed", fb)
	}

	// Every credit charged was refunded exactly once.
	led := ms.Ledger()
	if msgs := led.Audit(); len(msgs) > 0 {
		t.Errorf("ledger audit: %v", msgs)
	}
	if n := led.LiveCharges(); n != 0 {
		t.Errorf("%d live charges after teardown", n)
	}
	for tenant, b := range s.budgets {
		if a := led.Account(tenant); a.Budget != b || a.Remaining() != b {
			t.Errorf("tenant %s: budget %v, remaining %v after teardown, want both %v", tenant, a.Budget, a.Remaining(), b)
		}
	}
	// Nothing is reserved and nothing runs.
	if resv, running := s.w.OrphanedReservations(site), s.w.TotalRunning(site); resv+running != 0 {
		t.Errorf("%d reservations active and %d instances running after teardown", resv, running)
	}
}
