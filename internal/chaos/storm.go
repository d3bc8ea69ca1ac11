package chaos

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"

	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/vclock"
)

// StormConfig shapes an open-loop overload storm against one site.
//
// Open-loop is the property that makes overload testing honest: arrivals
// fire on a fixed clock regardless of how many earlier requests are
// still in flight, exactly like independent clients who do not know the
// service is drowning. A closed loop (next request after the previous
// answer) self-throttles and can never push a service past saturation.
type StormConfig struct {
	// Rate is the arrival rate in requests/second; must be > 0.
	Rate float64
	// Duration is how long arrivals keep firing.
	Duration time.Duration
	// Deadline is the per-request context deadline — the client's
	// patience. Zero means unbounded (requests queue forever rather
	// than expire). It propagates over the ORB wire, so downstream hops
	// can fast-fail work whose client has already given up.
	Deadline time.Duration
	// Priorities is cycled across arrivals (request i gets
	// Priorities[i % len]); empty means every request is priority 0.
	Priorities []int
	// Instances per placement; zero means 1.
	Instances int
	// Generator computes schedules; nil means scheduler.Random{} (the
	// cheapest policy — a storm measures the control plane, not
	// placement quality).
	Generator scheduler.Generator
	// Wrapper bounds the Figure 9 retry protocol; the zero value uses
	// tight limits (2 scheduling rounds, 1 enactment try per round) so
	// an overloaded run fails fast instead of multiplying the offered
	// load with retries.
	Wrapper scheduler.Wrapper
	// Clock drives the arrival schedule, per-request deadlines, and
	// latency measurement; nil means the World's clock. Taking the
	// clock here (rather than time.Now) is what makes a fixed-seed
	// storm replay bit-identically on any machine: under a virtual
	// clock the absolute schedule becomes a deterministic sequence of
	// discrete events immune to scheduler jitter.
	Clock vclock.Clock
}

// StormResult aggregates one storm's outcomes.
type StormResult struct {
	// Offered is how many requests the storm fired.
	Offered int
	// Succeeded is how many placements completed (the goodput count).
	Succeeded int
	// Shed is how many requests were refused with proto.ErrOverload by
	// an admission gate or a host shed policy.
	Shed int
	// Failed is everything else: deadline expiries, reservation
	// conflicts, transport faults.
	Failed int
	// ShedByPriority splits Shed by request priority.
	ShedByPriority map[int]int
	// Latencies holds the wall-clock of each successful placement.
	Latencies []time.Duration
	// Elapsed is the wall-clock of the whole storm including drain.
	Elapsed time.Duration
}

// Goodput is successful placements per second of storm wall-clock.
func (r *StormResult) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Succeeded) / r.Elapsed.Seconds()
}

// P99 is the 99th-percentile success latency (0 with no successes).
func (r *StormResult) P99() time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)*99/100]
}

// Storm fires cfg.Rate placements/second at the site's metasystem for
// cfg.Duration, waits for every in-flight request to resolve, and
// returns the tallied result. Successful placements are torn down
// immediately (instances destroyed, reservations cancelled) so repeated
// storms see the same capacity and post-storm conservation checks can
// expect an empty site.
func (w *World) Storm(ctx context.Context, s *Site, cfg StormConfig) *StormResult {
	if cfg.Instances <= 0 {
		cfg.Instances = 1
	}
	if cfg.Generator == nil {
		cfg.Generator = scheduler.Random{}
	}
	if cfg.Wrapper.SchedTryLimit == 0 {
		cfg.Wrapper.SchedTryLimit = 2
	}
	if cfg.Wrapper.EnactTryLimit == 0 {
		cfg.Wrapper.EnactTryLimit = 1
	}
	class, _ := s.MS.Class("Worker")

	clock := cfg.Clock
	if clock == nil {
		clock = w.clock
	}
	res := &StormResult{ShedByPriority: make(map[int]int)}
	var mu sync.Mutex
	wg := clock.NewGroup()
	start := clock.Now()
	interval := time.Duration(float64(time.Second) / cfg.Rate)

	fire := func(i int) {
		defer wg.Done()
		prio := 0
		if len(cfg.Priorities) > 0 {
			prio = cfg.Priorities[i%len(cfg.Priorities)]
		}
		rctx := ctx
		if cfg.Deadline > 0 {
			var cancel context.CancelFunc
			rctx, cancel = clock.WithTimeout(ctx, cfg.Deadline)
			defer cancel()
		}
		t0 := clock.Now()
		out, err := s.MS.PlaceApplicationLimits(rctx, cfg.Generator, scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: cfg.Instances}},
			Res: sched.ReservationSpec{
				Share: true, Reuse: true, Duration: time.Hour,
				Priority: prio,
			},
		}, cfg.Wrapper)
		lat := clock.Since(t0)

		if err == nil && out.Success {
			// Tear down with a fresh context: the request deadline may
			// already be spent, and a successful placement must not leak
			// just because cleanup raced it.
			cctx, cancel := clock.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
			for j, insts := range out.Instances {
				for _, inst := range insts {
					_, _ = s.MS.Runtime().Call(cctx, out.Feedback.Resolved[j].Class,
						proto.MethodDestroyInstance, proto.ObjectArgs{Object: inst})
				}
			}
			_ = s.MS.Enactor.CancelReservations(cctx, out.RequestID)
			cancel()
			mu.Lock()
			res.Succeeded++
			res.Latencies = append(res.Latencies, lat)
			mu.Unlock()
			return
		}
		mu.Lock()
		if proto.IsOverload(err) {
			res.Shed++
			res.ShedByPriority[prio]++
		} else {
			res.Failed++
		}
		mu.Unlock()
	}

	// Arrivals follow an absolute schedule (start + i*interval) rather
	// than a ticker: a ticker drops ticks when its receiver is delayed,
	// which under load silently converts the open loop into a partially
	// closed one — the generator would offer LESS load exactly when the
	// service is busiest, hiding the overload the storm exists to create.
	// Falling behind the schedule instead fires immediately, catching up.
	for i := 0; ; i++ {
		next := start.Add(time.Duration(i) * interval)
		if next.Sub(start) >= cfg.Duration {
			break
		}
		if d := clock.Until(next); d > 0 {
			if clock.Sleep(ctx, d) != nil {
				_ = wg.Wait(context.Background())
				res.Elapsed = clock.Since(start)
				return res
			}
		}
		wg.Add(1)
		res.Offered++
		n := i
		clock.Go(func() { fire(n) })
	}
	_ = wg.Wait(context.Background())
	res.Elapsed = clock.Since(start)
	return res
}

// StormSeed derives a deterministic sub-seed for storm-driven tests from
// the world seed, so fixed-seed CI runs (LEGION_CHAOS_SEED) pin the
// whole scenario.
func (w *World) StormSeed(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(w.seed + offset))
}
