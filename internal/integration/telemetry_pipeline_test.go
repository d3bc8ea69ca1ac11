package integration

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/telemetry"
	"legion/internal/vault"
	"legion/internal/vclock"
)

// TestTelemetryAcrossPlacementPipeline drives one placement through the
// full negotiation pipeline — Scheduler query → Enactor reservation →
// Host startObject — with a private registry, and reads back what the
// instrumentation recorded: every pipeline stage left a span with a
// real (non-zero) duration, the reservation counters agree with the
// outcome, and nothing tripped a breaker.
func TestTelemetryAcrossPlacementPipeline(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Other tests in this process legitimately use telemetry.Default;
	// snapshot it so the isolation check below sees only this test's
	// delta.
	defaultStarts := telemetry.Default.CounterValue("legion_host_object_starts_total")
	ms := core.New("uva", core.Options{Seed: 1, Metrics: reg})
	t.Cleanup(func() { ms.Close() })
	v := ms.AddVault(vault.Config{Zone: "uva"})
	for i := 0; i < 4; i++ {
		ms.AddHost(host.Config{
			Arch: "x86", OS: "Linux", OSVersion: "2.2",
			CPUs: 4, MemoryMB: 512, Zone: "uva",
			Vaults: []loid.LOID{v.LOID()},
		})
	}
	class := ms.DefineClass("Worker", nil)

	const count = 2
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := ms.PlaceApplication(ctx, scheduler.IRS{NSched: 3}, scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: count}},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	})
	if err != nil || !out.Success {
		t.Fatalf("placement failed: %v (outcome %+v)", err, out)
	}
	placed := 0
	for _, insts := range out.Instances {
		placed += len(insts)
	}
	if placed != count {
		t.Fatalf("placed %d instances, want %d", placed, count)
	}

	// Every pipeline stage must have recorded at least one finished span
	// with a measurable duration.
	spans := reg.Spans()
	for _, stage := range []string{
		"collection/query",
		"enactor/make_reservations",
		"enactor/enact_schedule",
		"host/startObject",
	} {
		got := spans.ByName(stage)
		if len(got) == 0 {
			t.Errorf("no %s span recorded", stage)
			continue
		}
		for _, s := range got {
			if s.Duration <= 0 {
				t.Errorf("%s span has non-positive duration %v", stage, s.Duration)
			}
			if s.TraceID == 0 || s.SpanID == 0 {
				t.Errorf("%s span has zero trace/span id", stage)
			}
		}
	}

	// Counter cross-checks. The Enactor's grants must cover the placed
	// instances and match what the Hosts say they granted, and live
	// occupancy must obey conservation: granted − cancelled = active
	// (reusable tokens are not consumed by redemption).
	granted := reg.CounterValue("legion_enactor_reservations_granted_total")
	cancelled := reg.CounterValue("legion_enactor_reservations_cancelled_total")
	hostGranted := reg.CounterValue("legion_host_reservations_granted_total")
	if granted < int64(count) {
		t.Errorf("enactor granted %d reservations, want >= %d", granted, count)
	}
	if granted != hostGranted {
		t.Errorf("enactor granted %d but hosts granted %d", granted, hostGranted)
	}
	if active := reg.GaugeValue("legion_reservations_active"); active != granted-cancelled {
		t.Errorf("occupancy gauge %d != granted %d - cancelled %d", active, granted, cancelled)
	}
	if starts := reg.CounterValue("legion_host_object_starts_total"); starts != int64(count) {
		t.Errorf("host started %d objects, want %d", starts, count)
	}
	if enacts := reg.CounterValue("legion_enactor_enactments_total"); enacts < 1 {
		t.Errorf("enactments counter %d, want >= 1", enacts)
	}

	// A healthy single-domain placement must not trip any breaker.
	if trips := reg.CounterValue("legion_breaker_transitions_total", "to", "open"); trips != 0 {
		t.Errorf("breaker tripped %d times during healthy placement", trips)
	}

	// Latency histograms for the two negotiation stages recorded the
	// same episodes the spans did.
	if n := reg.Histogram("legion_enactor_make_reservations_seconds", telemetry.LatencyBuckets).Count(); n < 1 {
		t.Errorf("make_reservations histogram count %d, want >= 1", n)
	}
	if n := reg.Histogram("legion_enactor_enact_schedule_seconds", telemetry.LatencyBuckets).Count(); n < 1 {
		t.Errorf("enact_schedule histogram count %d, want >= 1", n)
	}

	// Nothing leaked into the process-wide default registry: the private
	// registry isolated the whole pipeline.
	if n := telemetry.Default.CounterValue("legion_host_object_starts_total"); n != defaultStarts {
		t.Errorf("default registry saw %d object starts from a private-registry metasystem", n-defaultStarts)
	}
}

// TestStageHistogramsReadTheRuntimeClock places on a virtual clock with
// a fixed link latency, twice from one seed, and holds each pipeline
// stage's latency histogram to that stage's spans: the histogram
// observes the very durations the spans recorded on the runtime's
// clock, so its count and sum are theirs, the negotiation stages last at
// least one link's latency, and the second run fills the same buckets.
func TestStageHistogramsReadTheRuntimeClock(t *testing.T) {
	const latency = time.Millisecond
	stages := []struct {
		span, hist string
		calls      bool // the stage waits on at least one call
	}{
		{"collection/query", "legion_collection_query_seconds", false},
		{"enactor/make_reservations", "legion_enactor_make_reservations_seconds", true},
		{"enactor/enact_schedule", "legion_enactor_enact_schedule_seconds", true},
		{"host/startObject", "legion_host_start_object_seconds", false},
	}
	var firstRun [][]int64
	for run := 0; run < 2; run++ {
		reg := placeOnVirtualClock(t, latency)
		for i, st := range stages {
			spans := reg.Spans().ByName(st.span)
			if len(spans) == 0 {
				t.Fatalf("run %d: no %s span recorded", run, st.span)
			}
			var sum time.Duration
			for _, s := range spans {
				sum += s.Duration
				if st.calls && s.Duration < latency {
					t.Errorf("run %d: %s span lasted %v, under one link's %v", run, st.span, s.Duration, latency)
				}
			}
			h := reg.Histogram(st.hist, telemetry.LatencyBuckets)
			if h.Count() != int64(len(spans)) || math.Abs(h.Sum()-sum.Seconds()) > 1e-9 {
				t.Errorf("run %d: %s observed %d values summing to %gs; its %d spans sum to %v",
					run, st.hist, h.Count(), h.Sum(), len(spans), sum)
			}
			_, counts := h.Buckets()
			if run == 0 {
				firstRun = append(firstRun, counts)
			} else if !slices.Equal(counts, firstRun[i]) {
				t.Errorf("%s buckets %v, then %v from the same seed", st.hist, firstRun[i], counts)
			}
		}
	}
}

// placeOnVirtualClock places two instances on a four-host metasystem
// whose runtime runs on a virtual clock with every call delayed by
// latency, and returns the registry the placement recorded into.
func placeOnVirtualClock(t *testing.T, latency time.Duration) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	vc := vclock.NewVirtual()
	ms := core.New("uva", core.Options{Seed: 1, Metrics: reg, Clock: vc})
	t.Cleanup(func() { ms.Close() })
	ms.Runtime().SetLatency(latency, 0)
	v := ms.AddVault(vault.Config{Zone: "uva"})
	for i := 0; i < 4; i++ {
		ms.AddHost(host.Config{
			Arch: "x86", OS: "Linux", OSVersion: "2.2",
			CPUs: 4, MemoryMB: 512, Zone: "uva",
			Vaults: []loid.LOID{v.LOID()},
		})
	}
	class := ms.DefineClass("Worker", nil)
	vc.Run(func() {
		out, err := ms.PlaceApplication(context.Background(), scheduler.IRS{NSched: 3}, scheduler.Request{
			Classes: []scheduler.ClassRequest{{Class: class.LOID(), Count: 2}},
			Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
		})
		if err != nil || !out.Success {
			t.Errorf("placement failed: %v (outcome %+v)", err, out)
		}
	})
	return reg
}
