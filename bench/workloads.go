package main

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// workload is one row of the benchmark.
type workload struct {
	name string
	// build makes the fixture from the seed, up to and including an
	// untimed warm-up; its duration is setup_s.
	build func(cfg config) (fixture, error)
	// trace is the traced run: it builds its own fixture and reports
	// the per-layer metrics.
	trace func(cfg config) (*result, error)
}

// fixture is a built workload that timed trials run on.
type fixture interface {
	// trial runs timed trial i (0..trials-1) on the fixture.
	trial(i int) (trial, error)
	// check runs the workload's correctness checks after the last
	// trial and returns one message per failed check.
	check() []string
	close()
}

// trial is what one timed trial measured.
type trial struct {
	// ops succeeded; failed did not (failed, shed or errored). Both
	// count what usage brackets.
	ops, failed int64
	usage       usage
	// unbracketed operations succeeded outside what usage brackets; they
	// only count towards the run's attempted total.
	unbracketed int64
	// p50 is the primary operation's median latency and aux the
	// workload's second latency figure, in microseconds.
	p50, aux float64
	// samples is how many latencies p50 was taken over.
	samples int
	note    string
}

func workloads() []workload {
	return []workload{
		{"vscale", buildVscale, traceVscale},
		{"wall_place", func(c config) (fixture, error) { return buildPlace(c, false) }, func(c config) (*result, error) { return tracePlace(c, false) }},
		{"tcp_place", func(c config) (fixture, error) { return buildPlace(c, true) }, func(c config) (*result, error) { return tracePlace(c, true) }},
		{"orb_echo", buildEcho, traceEcho},
		{"collection_churn", buildChurn, traceChurn},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func selectWorkloads(csv string) ([]workload, error) {
	all := workloads()
	if csv == "" {
		return all, nil
	}
	var out []workload
	for _, name := range strings.Split(csv, ",") {
		found := false
		for _, w := range all {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ","))
		}
	}
	return out, nil
}

// runEndToEnd is the untraced run: build the fixture several times
// (setup_s is the median build, warm-up included), then time five trials
// on the last build and report each metric's best trial or mean over
// the trials (see pick). A fixture
// that builds in milliseconds is built more often, up to maxSetups
// times or cfg.setupSeconds in all: a median of five 15 ms builds is
// mostly noise.
func runEndToEnd(w workload, cfg config) (*result, error) {
	res := &result{}
	var fx fixture
	var setups []float64
	var spent float64
	for i := 0; i < cfg.setups || (spent < cfg.setupSeconds && i < maxSetups); i++ {
		if fx != nil {
			fx.close()
			fx = nil
			liveHeap() // the next build must not pay for collecting this one
		}
		t0 := time.Now()
		var err error
		if fx, err = w.build(cfg); err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[i]
	}
	res.note("setup_s is the median of %d builds: %.4g s", len(setups), setups)
	defer fx.close()
	heap := liveHeap()

	perTrial := map[string][]float64{}
	for i := 0; i < trials; i++ {
		t, err := fx.trial(i)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		res.Attempted += t.ops + t.unbracketed + t.failed
		res.Failed += t.failed
		ops := float64(t.ops)
		for name, v := range map[string]float64{
			"ops_per_s":     ratio(ops, t.usage.wall.Seconds()),
			"op_p50_us":     t.p50,
			"aux_us":        t.aux,
			"cpu_us_per_op": ratio(float64(t.usage.cpu)/float64(time.Microsecond), ops),
			"allocs_per_op": ratio(float64(t.usage.mallocs), ops),
			"bytes_per_op":  ratio(float64(t.usage.bytes), ops),
		} {
			perTrial[name] = append(perTrial[name], v)
		}
		res.note("trial %d: ok=%d failed=%d wall=%.3fs latency_samples=%d %s",
			i, t.ops, t.failed, t.usage.wall.Seconds(), t.samples, t.note)
	}
	res.Trials = perTrial
	for _, d := range endToEnd {
		switch d.name {
		case "setup_s":
			res.add(d.name, median(setups))
		case "setup_heap_bytes":
			res.add(d.name, float64(heap))
		default:
			res.add(d.name, pick(d, perTrial[d.name]))
		}
	}
	if res.Failed > 0 {
		res.checkf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	for _, msg := range fx.check() {
		res.checkf("%s", msg)
	}
	return res, nil
}

// pick reduces a metric's per-trial values to the one reported: the
// best trial for a timed metric, the mean over the trials for a count.
// The reference box shares its cores: other tenants slow stretches of
// 5-10 s by 10-20 %, and only ever slow them, so the best of five trials
// estimates the undisturbed cost where the median trial follows the
// disturbance. A count moves with the inputs, not the machine — on
// vscale, with how many requests each trial's seed lands on a cold
// cache — and the mean averages that over all five seeds. README.md has
// the ten-seed spreads of each choice.
func pick(d metricDef, values []float64) float64 {
	switch {
	case !d.timed:
		var sum float64
		for _, v := range values {
			sum += v
		}
		return ratio(sum, float64(len(values)))
	case d.better == "higher":
		return slices.Max(values)
	default:
		return slices.Min(values)
	}
}
