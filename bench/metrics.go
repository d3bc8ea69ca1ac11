package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// metricDef declares one metric: its unit, which direction is better,
// and (end-to-end metrics only) the share of the baseline median by
// which it may worsen before that is a regression. BENCHMARK.json at the
// repository root carries the same table; the smoke test keeps the two
// equal.
type metricDef struct {
	name, unit, better string
	bound              float64
	// timed marks a per-trial metric that wall-clock interference moves:
	// a run reports its best trial. The others — counts, which only the
	// inputs move — report the mean over the trials.
	timed bool
}

// endToEnd are the metrics every workload reports with tracing off.
// README.md says what each one measures on each workload, and has the
// ten-seed spreads the bounds rest on: each bound is at least three
// times the widest quartile spread a quiet reference box showed, and at
// most the 0.25 the driver allows.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, timed: true},
	{name: "op_p50_us", unit: "us", better: "lower", bound: 0.25, timed: true},
	{name: "aux_us", unit: "us", better: "lower", bound: 0.25, timed: true},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25, timed: true},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05},
	{name: "bytes_per_op", unit: "B", better: "lower", bound: 0.25},
	{name: "setup_heap_bytes", unit: "B", better: "lower", bound: 0.05},
}

// exactOnRepeat names the end-to-end metrics that are properties of the
// model, not of the machine: two runs with one seed must agree to the
// last digit. vscale's latencies are measured on the virtual clock.
var exactOnRepeat = map[string][]string{
	"vscale": {"op_p50_us", "aux_us"},
}

// perLayer are the metrics of single layers, reported by the traced run
// (-trace 1). A layer that does no work on a workload reads 0 there;
// the probes (vclock.ns_per_event, orb.local_dispatch_ns, orb.tcp_rtt_us,
// orb.allocs_per_call, proto.*) are properties of the code alone and are
// measured in every traced run.
var perLayer = []metricDef{
	{name: "vclock.events_per_placement", unit: "count", better: "lower"},
	{name: "vclock.ns_per_event", unit: "ns", better: "lower"},

	{name: "scheduler.generate_self_us", unit: "us", better: "lower"},
	{name: "scheduler.generate_us.random", unit: "us", better: "lower"},
	{name: "scheduler.generate_us.load_aware", unit: "us", better: "lower"},
	{name: "scheduler.generate_us.cost_aware", unit: "us", better: "lower"},
	{name: "scheduler.generate_us.irs", unit: "us", better: "lower"},
	{name: "scheduler.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "scheduler.sched_attempts_per_placement", unit: "count", better: "lower"},
	{name: "scheduler.enact_attempts_per_placement", unit: "count", better: "lower"},

	{name: "collection.query_calls_per_placement", unit: "count", better: "lower"},
	{name: "collection.records_per_query", unit: "count", better: "lower"},
	{name: "collection.selective_query_us", unit: "us", better: "lower"},
	{name: "collection.full_query_us", unit: "us", better: "lower"},
	{name: "collection.update_us", unit: "us", better: "lower"},
	{name: "collection.batch_apply_us_per_entry", unit: "us", better: "lower"},

	{name: "enactor.make_reservations_self_us", unit: "us", better: "lower"},
	{name: "enactor.enact_schedule_self_us", unit: "us", better: "lower"},
	{name: "enactor.cancel_reservations_self_us", unit: "us", better: "lower"},
	{name: "enactor.reservations_requested_per_placement", unit: "count", better: "lower"},
	{name: "enactor.grant_ratio", unit: "ratio", better: "higher"},
	{name: "enactor.variants_tried_per_placement", unit: "count", better: "lower"},

	{name: "host.make_reservation_us", unit: "us", better: "lower"},
	{name: "host.start_object_us", unit: "us", better: "lower"},
	{name: "host.kill_object_us", unit: "us", better: "lower"},
	{name: "host.cancel_reservation_us", unit: "us", better: "lower"},
	{name: "host.calls_per_placement", unit: "count", better: "lower"},
	{name: "host.refusals_per_placement", unit: "count", better: "lower"},

	{name: "classobj.create_instance_self_us", unit: "us", better: "lower"},
	{name: "classobj.destroy_instance_self_us", unit: "us", better: "lower"},
	{name: "vault.calls_per_placement", unit: "count", better: "lower"},
	{name: "vault.op_us", unit: "us", better: "lower"},

	{name: "orb.calls_per_placement", unit: "count", better: "lower"},
	{name: "orb.local_dispatch_ns", unit: "ns", better: "lower"},
	{name: "orb.tcp_rtt_us", unit: "us", better: "lower"},
	{name: "orb.allocs_per_call", unit: "count", better: "lower"},
	{name: "orb.socket_share", unit: "ratio", better: "lower"},
	{name: "proto.encode_ns.small", unit: "ns", better: "lower"},
	{name: "proto.decode_ns.small", unit: "ns", better: "lower"},
	{name: "proto.encode_ns.query_reply_256", unit: "ns", better: "lower"},
	{name: "proto.decode_ns.query_reply_256", unit: "ns", better: "lower"},
	{name: "proto.bytes.query_reply_256", unit: "B", better: "lower"},

	{name: "resilient.transport_retries_per_placement", unit: "count", better: "lower"},

	{name: "telemetry.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.unattributed_us", unit: "us", better: "lower"},
	{name: "trace.negotiation_self_us", unit: "us", better: "lower"},
	{name: "trace.op_us", unit: "us", better: "lower"},
}

// exactLayerOnRepeat are the per-layer counts that are functions of the
// inputs alone on vscale's virtual clock.
var exactLayerOnRepeat = []string{
	"vclock.events_per_placement",
	"orb.calls_per_placement", "host.calls_per_placement", "vault.calls_per_placement",
}

// ratio is a/b, or 0 when nothing was counted: every reported value
// must be a finite number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// compareSets is the -repeat self-check: it prints, per metric, how far
// the runs of one invocation disagree, and reports whether every
// end-to-end metric stayed within its own bound (exactly, for the model
// properties).
func compareSets(sets [][]*result, stdout io.Writer) bool {
	ok := true
	for i, first := range sets[0] {
		exact := exactOnRepeat[first.Workload]
		if first.Traced {
			exact = nil
			if first.Workload == "vscale" {
				exact = exactLayerOnRepeat
			}
		}
		for _, m := range first.Metrics {
			lo, hi := m.Value, m.Value
			for _, set := range sets[1:] {
				v, _ := set[i].value(m.Name)
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			spread := ratio(hi-lo, math.Abs(lo))
			verdict := "ok"
			switch d, isE2E := endToEndDef(m.Name); {
			case slices.Contains(exact, m.Name):
				if hi != lo {
					verdict = "FAIL (must repeat exactly)"
				}
			case m.Name == "setup_s":
				// A 15 ms build varies by a third from one moment to the
				// next; the driver bounds the median of set-up over ten
				// runs, not the spread between two.
				verdict = "not bounded"
			case isE2E && spread > d.bound:
				verdict = fmt.Sprintf("FAIL (bound %.3g)", d.bound)
			case !isE2E:
				verdict = "diagnostic"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				ok = false
			}
			fmt.Fprintf(stdout, "# repeat %s %s min=%s max=%s spread=%.4f %s\n",
				first.Workload, m.Name, formatValue(lo), formatValue(hi), spread, verdict)
		}
	}
	return ok
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
