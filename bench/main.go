// Command bench is the repository's placement benchmark: five seeded
// workloads driven through the unmodified public APIs, each reporting
// the end-to-end metrics of metrics.go with tracing off, or — with
// -trace 1 — the per-layer metrics from a separate traced run.
// README.md in this directory records why each workload exists and what
// every metric means.
//
//	go run ./bench -seed 1                      # every workload, end to end
//	go run ./bench -seed 1 -trace 1             # every workload, per layer
//	go run ./bench -workload vscale,orb_echo    # selected rows
//	go run ./bench -repeat 2                    # repeatability self-check
//
// Every metric is printed as "workload metric value unit"; the last line
// of standard output is one JSON object {correct, attempted, failed,
// metrics}. The exit code is non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config sizes one invocation. The full-scale values are the ones
// BENCHMARK.json is measured at; the smoke test shrinks them.
type config struct {
	seed int64
	// seconds is the timed part of one workload: five trials of
	// seconds/5 each (or, traced, the budget split over the passes).
	seconds float64
	// hosts is the wall_place/tcp_place/orb_echo fleet; bigHosts the
	// vscale/collection_churn one.
	hosts, bigHosts int
	// setups is the least number of times the fixture is built, and
	// building goes on (up to maxSetups times) until setupSeconds have
	// been spent on it. setup_s is the builds' median; the last build is
	// the one measured.
	setups       int
	setupSeconds float64
	// maxOps caps the operations of one client in one trial (0 = time
	// alone ends a trial); the smoke test uses it to stay small.
	maxOps int
	// vscalePlacements is the size of one vscale campaign; see
	// vscalePlacementsPerSecond.
	vscalePlacements int
	outDir           string
}

const (
	trials    = 5
	maxSetups = 15
	// vscalePlacementsPerSecond converts the time budget into a fixed
	// campaign size, so the virtual-time percentiles are a function of
	// (seed, seconds) alone and repeat exactly. It is about the
	// reference box's speed: a faster simulator finishes early instead
	// of changing the model. At the 20 s of BENCHMARK.json a campaign is
	// 22,000 placements, 11 virtual seconds: clear of the 10 s
	// SnapshotTTL, so every trial pays two cache refills, not one or two
	// depending on the seed.
	vscalePlacementsPerSecond = 5500
)

func fullScale(seed int64, seconds float64, outDir string) config {
	return config{
		seed: seed, seconds: seconds,
		hosts: 256, bigHosts: 10_000, setups: 5, setupSeconds: 1,
		vscalePlacements: int(seconds * vscalePlacementsPerSecond / trials),
		outDir:           outDir,
	}
}

// trialDur is the length of one timed trial.
func (c config) trialDur() time.Duration {
	return time.Duration(c.seconds / trials * float64(time.Second))
}

// sliced splits a stretch of a trial into rounds of about each. The
// wall_place, tcp_place and orb_echo trials run in such rounds and
// report their fastest one: the box's disturbances are bursts of tens
// to hundreds of milliseconds and they only ever slow, so the shorter a
// slice, the better the chance that one of them ran undisturbed.
func sliced(total, each time.Duration) (rounds int, d time.Duration) {
	rounds = max(int(total/each), 1)
	return rounds, total / time.Duration(rounds)
}

// clients is the closed-loop client count of the placement workloads.
func clients() int { return min(runtime.GOMAXPROCS(0), 4) }

// metric is one reported value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run, end to end or traced.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Metrics   []metric `json:"metrics"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	// Trials holds each timed trial's value of the per-trial metrics
	// (end-to-end runs only).
	Trials map[string][]float64 `json:"trials,omitempty"`
	// CheckErrors lists the correctness checks that failed.
	CheckErrors []string `json:"check_errors"`
	// Notes are printed as "# workload: ..." lines: sample counts,
	// per-trial tallies, reconciliations.
	Notes []string `json:"notes"`
	// Claim is always null: this benchmark defines the baseline and
	// claims no gain.
	Claim *string `json:"claim"`
}

func (r *result) add(name string, value float64) {
	unit := ""
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				unit = d.unit
			}
		}
	}
	if unit == "" {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit})
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) checkf(format string, args ...any) {
	r.CheckErrors = append(r.CheckErrors, fmt.Sprintf(format, args...))
}

func (r *result) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workloads (default: all of "+strings.Join(workloadNames(), ",")+")")
		seed    = fs.Int64("seed", 1, "seed for every generated input")
		seconds = fs.Float64("seconds", 20, "timed seconds per workload")
		trace   = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end run")
		repeat  = fs.Int("repeat", 1, "run the selected set this many times and fail if the runs disagree beyond the metric bounds")
		outDir  = fs.String("out", filepath.Join("bench", "out"), "directory for result and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: want -seconds > 0, -repeat >= 1, -trace 0|1 and no positional arguments")
		return 2
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg := fullScale(*seed, *seconds, *outDir)
	traced := *trace == 1

	fmt.Fprintf(stdout, "# %s nproc=%d GOMAXPROCS=%d clients=%d seed=%d seconds=%g trials=%d trace=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), clients(), *seed, *seconds, trials, *trace)
	fmt.Fprintln(stdout, "# sockets are loopback TCP (127.0.0.1), one connection: no link latency or loss is measured")

	var sets [][]*result
	ok := true
	for r := 0; r < *repeat; r++ {
		set, err := runSet(cfg, selected, traced, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for _, res := range set {
			ok = ok && len(res.CheckErrors) == 0
		}
		sets = append(sets, set)
	}
	if *repeat > 1 && !compareSets(sets, stdout) {
		ok = false
	}
	printSummary(sets[len(sets)-1], ok, stdout)
	if !ok {
		return 1
	}
	return 0
}

// runSet runs the selected workloads once each, printing and storing
// every result.
func runSet(cfg config, selected []workload, traced bool, stdout io.Writer) ([]*result, error) {
	var set []*result
	for _, w := range selected {
		var res *result
		var err error
		if traced {
			res, err = w.trace(cfg)
		} else {
			res, err = runEndToEnd(w, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Workload, res.Traced = w.name, traced
		for _, m := range res.Metrics {
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, m.Name, formatValue(m.Value), m.Unit)
		}
		for _, n := range res.Notes {
			fmt.Fprintf(stdout, "# %s: %s\n", w.name, n)
		}
		for _, e := range res.CheckErrors {
			fmt.Fprintf(stdout, "# %s: CHECK FAILED: %s\n", w.name, e)
		}
		kind := "e2e"
		if traced {
			kind = "layers"
		}
		if err := writeJSON(filepath.Join(cfg.outDir, w.name+"-"+kind+".json"), res); err != nil {
			return nil, err
		}
		set = append(set, res)
	}
	if traced {
		noteVscaleReconciliation(set, stdout)
	}
	return set, nil
}

// formatValue prints a value with all the digits it was measured with.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printSummary writes the final line: one JSON object with the keys
// correct, attempted, failed and metrics. With one workload selected the
// metric keys are the bare names; with several they are
// "workload/name".
func printSummary(set []*result, ok bool, stdout io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: ok, Metrics: map[string]value{}}
	for _, res := range set {
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
		for _, m := range res.Metrics {
			key := m.Name
			if len(set) > 1 {
				key = res.Workload + "/" + m.Name
			}
			summary.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		panic(err) // only finite floats and strings are marshalled
	}
	fmt.Fprintln(stdout, string(b))
}
