package chaos

import (
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/resilient"
	"legion/internal/sim"
	"legion/internal/telemetry"
)

// stormWorld builds a single-site world at the given admission settings
// with a private registry for exact counter assertions.
func stormWorld(t *testing.T, opts core.Options) (*World, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	opts.Metrics = reg
	opts.Retry = resilient.Policy{
		MaxAttempts: 2, BaseDelay: time.Millisecond,
		Budget: 2 * time.Second, AttemptTimeout: time.Second,
	}
	w, err := NewWorld(42, opts, SiteSpec{Domain: "uva", Hosts: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w, reg
}

// TestOverloadStormConservation is the storm-level conservation check:
// after an overload storm against an admission-controlled site drains,
// every shed must have been a pure refusal — zero reservations and zero
// running instances left behind, and no circuit breaker tripped by a
// shed (sheds classify as refusals, not transport failures).
func TestOverloadStormConservation(t *testing.T) {
	const breakerThreshold = 5
	w, reg := stormWorld(t, core.Options{
		Seed:           1,
		MaxInFlight:    4,
		AdmissionQueue: 8,
		ShedWatermark:  0.8,
		Breaker:        resilient.BreakerConfig{FailureThreshold: breakerThreshold},
	})
	site := w.Sites[0]
	// Slow the site so placements genuinely saturate the admission
	// slots: without injected service time an in-process placement is
	// sub-millisecond and no storm rate shrugs the gate.
	w.Slow(site, 10*time.Millisecond, 2*time.Millisecond)

	res := storm(w, site, sim.DriverConfig{
		Rate:       250, // ~5x the E11 base rate
		Requests:   100, // 400ms of arrivals
		Deadline:   250 * time.Millisecond,
		Priorities: []int{0, 0, 0, 1},
	})
	t.Logf("seed %d: offered=%d ok=%d shed=%d failed=%d goodput=%.1f/s p99=%v shedByPrio=%v",
		w.Seed(), res.Offered, res.Succeeded, res.Shed, res.Failed,
		res.Goodput(), res.Percentile(0.99), res.ShedByPriority)

	if res.Offered == 0 {
		t.Fatal("storm fired nothing")
	}
	if got := res.Succeeded + res.Shed + res.Failed; got != res.Offered {
		t.Errorf("outcome accounting: %d+%d+%d = %d, want offered %d",
			res.Succeeded, res.Shed, res.Failed, got, res.Offered)
	}
	if res.Succeeded == 0 {
		t.Error("admission-controlled site served nothing at 5x load")
	}
	if res.Shed == 0 {
		t.Error("saturated gate shed nothing — admission control never engaged")
	}
	byPrio := 0
	for _, n := range res.ShedByPriority {
		byPrio += n
	}
	if byPrio != res.Shed {
		t.Errorf("shed by priority %v sums to %d, want shed %d", res.ShedByPriority, byPrio, res.Shed)
	}

	// Conservation: sheds leave no tokens, no instances. Quiesce rather
	// than count instantly — server-side rollbacks may still be in
	// flight when the last client returns.
	if res, run := w.Quiesce(site, 2*time.Second); res != 0 || run != 0 {
		t.Errorf("storm leaked %d reservations, %d running instances", res, run)
	}
	// Sheds are refusals: none may count against a breaker. Requests
	// whose deadline died in a call are failures, and breakerThreshold of
	// those in a row against one endpoint rightly open its breaker, so a
	// storm may open at most one breaker per breakerThreshold failures.
	opened := reg.CounterValue("legion_breaker_transitions_total", "to", "open")
	if opened > int64(res.Failed/breakerThreshold) {
		t.Errorf("seed %d: %d breakers opened in a storm with %d sheds and %d failures",
			w.Seed(), opened, res.Shed, res.Failed)
	}
}

// TestOverloadStormUncontrolledBaseline runs the same storm with
// admission off: the uncontrolled site must also conserve tokens (every
// failure path still rolls back), and nothing is shed because no gate
// exists to shed.
func TestOverloadStormUncontrolledBaseline(t *testing.T) {
	w, reg := stormWorld(t, core.Options{Seed: 1})
	site := w.Sites[0]

	res := storm(w, site, sim.DriverConfig{
		Rate:     250,
		Requests: 100,
		Deadline: 250 * time.Millisecond,
	})
	t.Logf("seed %d: offered=%d ok=%d shed=%d failed=%d",
		w.Seed(), res.Offered, res.Succeeded, res.Shed, res.Failed)

	if res.Shed != 0 {
		t.Errorf("no admission layer, yet %d requests shed", res.Shed)
	}
	if res, run := w.Quiesce(site, 2*time.Second); res != 0 || run != 0 {
		t.Errorf("uncontrolled storm leaked %d reservations, %d running instances", res, run)
	}
	_ = reg
}
