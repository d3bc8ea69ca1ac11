package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// toyConfig runs every workload at a scale the race detector gets
// through in seconds: a few dozen hosts, a handful of operations per
// client per trial.
func toyConfig(t *testing.T) config {
	return config{
		seed: 7, seconds: 0.25,
		hosts: 24, bigHosts: 32, setups: 1, maxOps: 6,
		vscalePlacements: 40,
		outDir:           t.TempDir(),
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkResult asserts that a result carries exactly the declared
// metrics, in order, with their units, and passed its own checks.
func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.CheckErrors) > 0 {
		t.Errorf("correctness checks failed: %v", res.CheckErrors)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("attempted=%d failed=%d, want at least one operation and no failure", res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for i, d := range defs {
		m := res.Metrics[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("metric %d is %s [%s], want %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the allowed alphabet", m.Name)
		}
	}
}

func TestEveryWorkloadEndToEnd(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(w, toyConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			for _, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never zero", m.Name, m.Value)
				}
			}
		})
	}
}

func TestEveryWorkloadTraced(t *testing.T) {
	// The layer metrics that must be positive on each workload's own
	// traced run; the probes are positive everywhere.
	nonZero := map[string][]string{
		"vscale":           {"vclock.events_per_placement", "orb.calls_per_placement", "host.calls_per_placement", "enactor.grant_ratio"},
		"wall_place":       {"scheduler.generate_self_us", "scheduler.generate_us.irs", "enactor.make_reservations_self_us", "host.start_object_us", "classobj.create_instance_self_us", "vault.op_us", "telemetry.overhead_ratio", "trace.negotiation_self_us"},
		"tcp_place":        {"scheduler.generate_us.load_aware", "enactor.enact_schedule_self_us", "host.kill_object_us", "orb.calls_per_placement"},
		"orb_echo":         {"orb.calls_per_placement"},
		"collection_churn": {"collection.selective_query_us", "collection.full_query_us", "collection.update_us", "collection.batch_apply_us_per_entry", "collection.records_per_query"},
	}
	probes := []string{"vclock.ns_per_event", "orb.local_dispatch_ns", "orb.tcp_rtt_us", "orb.allocs_per_call",
		"proto.encode_ns.small", "proto.decode_ns.small", "proto.encode_ns.query_reply_256", "proto.decode_ns.query_reply_256",
		"proto.bytes.query_reply_256", "trace.overhead_ratio", "trace.op_us"}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			cfg := toyConfig(t)
			res, err := w.trace(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			for _, name := range append(probes, nonZero[w.name]...) {
				if v, _ := res.value(name); v <= 0 {
					t.Errorf("%s = %v on %s, want a positive value", name, v, w.name)
				}
			}
			if _, err := os.Stat(cfg.outDir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestSelfTime pins the span arithmetic on a hand-built operation: a
// root with two overlapping children (a fan-out), one of which has a
// child of its own.
func TestSelfTime(t *testing.T) {
	r := newRecorder()
	r.open = []span{
		{Name: "leaf", Start: 20, End: 30},
		{Name: "a", Start: 10, End: 50},
		{Name: "b", Start: 40, End: 70},
		{Name: "root", Start: 0, End: 100},
	}
	r.flush()
	want := map[string]int64{"root": 100 - 60, "a": 40 - 10, "b": 30, "leaf": 10}
	for name, self := range want {
		if got := r.totals[name].SelfNS; got != self {
			t.Errorf("self time of %s = %d, want %d", name, got, self)
		}
	}
	if r.ops != 1 || r.rootNS != 100 {
		t.Errorf("ops=%d rootNS=%d, want 1 and 100", r.ops, r.rootNS)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to the tables in
// metrics.go and the workload list.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d declared", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, want %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s[%d] %s: bound %v, want %v (present: %v)", kind, i, d.name, g.Bound, d.bound, bounded)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
}

// TestRunPrintsSummary drives the command itself on the cheapest
// workload: the last line of output must be the result object.
func TestRunPrintsSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "orb_echo", "--seed", "3", "--seconds", "0.2", "--trace", "0", "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var summary struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !summary.Correct || summary.Attempted < 1 || summary.Failed != 0 || len(summary.Metrics) != len(endToEnd) {
		t.Errorf("summary %+v", summary)
	}
	for _, want := range []string{"GOMAXPROCS=", "nproc=", "clients=", "loopback", "latency_samples="} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output does not state %q", want)
		}
	}
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload must not exit 0")
	}
}
