package sim

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"time"

	"legion/internal/classobj"
	"legion/internal/core"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/vclock"
)

// ArrivalProcess names how the Driver spaces placement arrivals.
type ArrivalProcess int

// Arrival processes.
const (
	// Poisson draws exponential inter-arrival gaps with mean 1/Rate —
	// independent clients, the honest open-loop default.
	Poisson ArrivalProcess = iota
	// Uniform fires exactly every 1/Rate — a metronome, useful when an
	// experiment wants latency variance attributable to the system alone.
	Uniform
)

// DriverConfig shapes one open-loop placement workload replay.
type DriverConfig struct {
	// Clock paces arrivals and measures latency; nil means the
	// metasystem runtime's clock. Under a *vclock.Virtual the whole run
	// happens in virtual time: call Drive from a clock-registered
	// goroutine (vclock.Virtual.Run).
	Clock vclock.Clock
	// Rate is the mean arrival rate in requests per virtual second.
	Rate float64
	// Requests is the total number of placements to offer.
	Requests int
	// Arrivals picks the arrival process; default Poisson.
	Arrivals ArrivalProcess
	// Seed drives the arrival gaps and every placement's random choices.
	// Each request r uses an independent stream derived from (Seed, r),
	// so placement decisions do not depend on goroutine interleaving —
	// the property that lets a virtual-time replay be deterministic.
	Seed int64
	// Deadline bounds each request (client patience); zero = unbounded.
	Deadline time.Duration
	// Priorities is cycled across requests (request i gets
	// Priorities[i % len]); empty means every request is priority 0.
	Priorities []int
	// Spec, when non-nil, overrides the reservation spec for request i
	// (economy campaigns stamp Tenant/Deadline/Budget per request); nil
	// keeps the default shared hour-long reusable spec with Priorities.
	Spec func(i int) sched.ReservationSpec
	// Generator computes schedules; nil means scheduler.Random{}.
	Generator scheduler.Generator
	// SnapshotTTL bounds host-snapshot staleness: placements within the
	// TTL share one parsed Collection snapshot (scheduler.HostCache)
	// instead of re-reading the whole directory per request. Zero means
	// 5s — commensurate with the Collection's own pull interval, per the
	// §3.2 staleness license. Negative disables caching.
	SnapshotTTL time.Duration
	// Observe, when non-nil, is called with each successful placement's
	// outcome (request index, resolved schedule) before teardown. It
	// runs on the placement's goroutine and must be safe for concurrent
	// use; economy campaigns judge per-request deadline fit here.
	Observe func(i int, out *scheduler.Outcome)
}

// DriverResult aggregates one replay.
type DriverResult struct {
	Offered   int
	Succeeded int
	// Shed counts typed overload refusals; Failed everything else.
	Shed, Failed int
	// Stranded counts successful placements whose teardown failed: the
	// DestroyInstance call returned an error, so the instance may still
	// be running. Each request places one instance.
	Stranded int
	// ShedByPriority splits Shed by the refused spec's priority; nil
	// until the first shed.
	ShedByPriority map[int]int
	// Latencies holds each successful placement's latency on the
	// driving clock (virtual time under a virtual clock).
	Latencies []time.Duration
	// Elapsed is the whole replay on the driving clock.
	Elapsed time.Duration
	// CacheHits/CacheMisses report snapshot reuse.
	CacheHits, CacheMisses int64
}

// Goodput is successful placements per second of driving-clock time.
func (r *DriverResult) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Succeeded) / r.Elapsed.Seconds()
}

// Percentile returns the q-quantile (0 < q <= 1) success latency.
func (r *DriverResult) Percentile(q float64) time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// splitmix is a tiny rand.Source64 (SplitMix64). The driver derives one
// per request: rand.NewSource's generator carries a 4.9kB table, which
// at a million requests is pure GC churn for a handful of draws.
type splitmix struct{ state uint64 }

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (s *splitmix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// Drive is the package-level Drive against the fleet's metasystem.
func (f *Fleet) Drive(ctx context.Context, class *classobj.Class, cfg DriverConfig) *DriverResult {
	return Drive(ctx, f.MS, class, cfg)
}

// Drive replays an open-loop workload of cfg.Requests single-instance
// placements of the given class against ms, through the production
// pipeline (Generator → Wrapper → Enactor → Hosts), and returns the
// tallied result. Successful placements are torn down, so repeated
// replays see the same capacity. Teardown is one call per instance with
// no retry: under injected faults some fail, and Stranded counts them, so
// a conservation audit expects exactly that many instances left behind.
//
// Open-loop is the property that makes overload testing honest: arrivals
// keep their schedule however many earlier requests are still in flight,
// like independent clients who do not know the service is drowning. A
// closed loop (next request after the previous answer) self-throttles
// and can never push a service past saturation. On a virtual clock the
// schedule, the deadlines and the latencies are discrete events, so a
// fixed seed replays bit-identically.
func Drive(ctx context.Context, ms *core.Metasystem, class *classobj.Class, cfg DriverConfig) *DriverResult {
	clock := cfg.Clock
	if clock == nil {
		clock = ms.Runtime().Clock()
	}
	gen := cfg.Generator
	if gen == nil {
		gen = scheduler.Random{}
	}
	// Tight Figure 9 limits, so an overloaded run fails fast instead of
	// multiplying the offered load with retries.
	wrapper := scheduler.Wrapper{SchedTryLimit: 2, EnactTryLimit: 1}
	env := ms.Env()
	var cache *scheduler.HostCache
	if cfg.SnapshotTTL >= 0 {
		ttl := cfg.SnapshotTTL
		if ttl == 0 {
			ttl = 5 * time.Second
		}
		cache = scheduler.NewHostCache(clock, ttl)
		env.Cache = cache
	}
	enactorL := ms.Enactor.LOID()
	rt := ms.Runtime()

	res := &DriverResult{}
	var mu sync.Mutex
	group := clock.NewGroup()
	start := clock.Now()

	fire := func(i int) {
		defer group.Done()
		// Per-request Env: same cache and breakers, independent
		// deterministic random stream.
		envi := *env
		envi.Rand = rand.New(&splitmix{state: uint64(cfg.Seed) ^ (uint64(i)+1)*0xD1342543DE82EF95})
		rctx := ctx
		if cfg.Deadline > 0 {
			rctx = clock.WithDeadline(ctx, clock.Now().Add(cfg.Deadline))
			defer vclock.End(rctx)
		}
		spec := sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour}
		if len(cfg.Priorities) > 0 {
			spec.Priority = cfg.Priorities[i%len(cfg.Priorities)]
		}
		if cfg.Spec != nil {
			spec = cfg.Spec(i)
		}
		t0 := clock.Now()
		out, err := wrapper.Run(rctx, &envi, enactorL, gen, scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 1}},
			Res:     spec,
		})
		lat := clock.Since(t0)

		if err == nil && out.Success {
			if cfg.Observe != nil {
				cfg.Observe(i, &out)
			}
			// Fresh context: the request deadline may be spent, and a
			// successful placement must not leak because cleanup raced.
			cctx := clock.WithDeadline(context.WithoutCancel(ctx), clock.Now().Add(30*time.Second))
			stranded := 0
			for j, insts := range out.Instances {
				for _, inst := range insts {
					if _, err := orb.Invoke[proto.Ack](cctx, rt, out.Feedback.Resolved[j].Class,
						proto.MethodDestroyInstance, proto.ObjectArgs{Object: inst}); err != nil {
						stranded++
					}
				}
			}
			_ = ms.Enactor.CancelReservations(cctx, out.RequestID)
			vclock.End(cctx)
			mu.Lock()
			res.Succeeded++
			res.Stranded += stranded
			res.Latencies = append(res.Latencies, lat)
			mu.Unlock()
			return
		}
		mu.Lock()
		if errors.Is(err, orb.ErrOverload) {
			res.Shed++
			if res.ShedByPriority == nil {
				res.ShedByPriority = make(map[int]int)
			}
			res.ShedByPriority[spec.Priority]++
		} else {
			res.Failed++
		}
		mu.Unlock()
	}

	// Arrivals follow an absolute schedule, not a ticker: a ticker drops
	// ticks when its receiver is late, which under load would offer less
	// exactly when the service is busiest. An arrival behind schedule
	// fires at once. Poisson gaps come from their own stream so the
	// schedule does not depend on placement outcomes.
	arrivals := rand.New(&splitmix{state: uint64(cfg.Seed)})
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	next := start
	for i := 0; i < cfg.Requests; i++ {
		if d := clock.Until(next); d > 0 {
			if clock.Sleep(ctx, d) != nil {
				break
			}
		}
		group.Add(1)
		res.Offered++
		n := i
		clock.Go(func() { fire(n) })
		switch cfg.Arrivals {
		case Uniform:
			next = next.Add(interval)
		default: // Poisson
			next = next.Add(time.Duration(arrivals.ExpFloat64() * float64(interval)))
		}
	}
	_ = group.Wait(context.Background())
	res.Elapsed = clock.Since(start)
	if cache != nil {
		res.CacheHits, res.CacheMisses = cache.Stats()
	}
	return res
}
