package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/resilient"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
)

// E7FaultRateResilience measures end-to-end placement under injected
// transport faults: for each fault rate, `trials` full Figure 3
// pipelines (IRS generation → Wrapper negotiation → Enactor enactment)
// run against a 4-host metasystem whose runtime fails the given
// fraction of calls with orb.ErrInjectedFault. With the resilience
// layer on (retry + breakers + classification), placements should keep
// succeeding at 20% faults; the ablation row (resilience off at the
// same rate) shows what the retry layer is absorbing.
func E7FaultRateResilience(trials int, rates []float64) *Table {
	if trials < 1 {
		trials = 20
	}
	if len(rates) == 0 {
		rates = []float64{0, 0.05, 0.20}
	}
	t := &Table{
		ID:    "E7",
		Title: "Placement under injected transport faults (retry/breaker layer)",
		Header: []string{"fault rate", "resilience", "trials", "placed", "success",
			"mean latency", "mean enact attempts"},
	}
	for _, rate := range rates {
		for _, on := range []bool{true, false} {
			placed, meanLat, meanAttempts := faultRateRun(trials, rate, on)
			mode := "on"
			if !on {
				mode = "off"
			}
			t.AddRow(fmt.Sprintf("%.0f%%", rate*100), mode, trials, placed,
				fmt.Sprintf("%.0f%%", 100*float64(placed)/float64(trials)),
				meanLat, meanAttempts)
		}
	}
	t.Notes = append(t.Notes,
		"resilience off = single-attempt calls everywhere (the pre-resilience code path)",
		"faults are injected before the call reaches its target, so retries are duplicate-safe")
	return t
}

// faultRateRun executes trials placements at one fault rate and reports
// how many succeeded, the mean wall-clock per successful placement, and
// the mean Figure 9 enact attempts consumed.
func faultRateRun(trials int, rate float64, resilienceOn bool) (placed int, meanLatency time.Duration, meanAttempts float64) {
	retry := resilient.Policy{
		MaxAttempts:    4,
		BaseDelay:      time.Millisecond,
		Budget:         10 * time.Second,
		AttemptTimeout: 5 * time.Second,
	}
	if !resilienceOn {
		retry.MaxAttempts = 1
	}
	ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 1, Retry: retry},
		Hosts: withMaxShared(sim.UniformSpecs(4, 8), trials*4+16)}).MS
	defer ms.Close()
	class := ms.DefineClass("Worker", nil)

	// Seeded flaky link: deterministic across runs.
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(1999))
	if rate > 0 {
		ms.Runtime().SetFaultInjector(func(target loid.LOID, method string) error {
			mu.Lock()
			defer mu.Unlock()
			if rng.Float64() < rate {
				return fmt.Errorf("%w: flaky link", orb.ErrInjectedFault)
			}
			return nil
		})
		defer ms.Runtime().SetFaultInjector(nil)
	}

	ctx := context.Background()
	var totalLat time.Duration
	var totalAttempts int
	for i := 0; i < trials; i++ {
		t0 := time.Now()
		out, err := ms.PlaceApplicationLimits(ctx, scheduler.IRS{NSched: 3},
			scheduler.Request{
				Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 3}},
				Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
			},
			scheduler.Wrapper{SchedTryLimit: 4, EnactTryLimit: 2})
		totalAttempts += out.EnactAttempts
		if err != nil || !out.Success {
			continue
		}
		placed++
		totalLat += time.Since(t0)
		// Tear the placement down so capacity does not monotonically
		// shrink across trials.
		for j, insts := range out.Instances {
			for _, inst := range insts {
				_, _ = orb.Invoke[proto.Ack](ctx, ms.Runtime(), out.Feedback.Resolved[j].Class,
					proto.MethodDestroyInstance, proto.ObjectArgs{Object: inst})
			}
		}
		_ = ms.Enactor.CancelReservations(ctx, out.RequestID)
	}
	if placed > 0 {
		meanLatency = totalLat / time.Duration(placed)
	}
	meanAttempts = float64(totalAttempts) / float64(trials)
	return placed, meanLatency, meanAttempts
}
