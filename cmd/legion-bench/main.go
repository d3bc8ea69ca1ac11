// Command legion-bench regenerates the experiment tables recorded in
// EXPERIMENTS.md: one per paper artifact (Tables 1-2, Figures 1-9 as
// executable behaviour) plus the §6 promised scheduler benchmark and the
// design ablations from DESIGN.md.
//
//	legion-bench              # run everything
//	legion-bench -run F8,E1   # run selected experiments
//	legion-bench -run E8 -json # machine-readable tables
//	legion-bench -list        # list experiment IDs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"legion/internal/experiments"
	"legion/internal/telemetry"
)

// experiment couples an ID with its runner.
type experiment struct {
	id    string
	title string
	run   func() *experiments.Table
}

// faultRates are the injected-fault rates E7 sweeps; -faultrate narrows
// the sweep to a single rate.
var faultRates = []float64{0, 0.05, 0.20}

// e12Hosts/e12Requests size E12's virtual-time campaign. The catalogue
// default is the reduced CI row (10k hosts / 50k placements, seconds of
// wall time); -virtual switches to the committed full-scale row
// (100k / 1M, minutes of wall time), and -hosts/-requests override
// either.
var (
	e12Hosts    = 10_000
	e12Requests = 50_000
)

// e13Hosts/e13Requests size E13's codec-boundary reruns of the E12
// campaign; -hosts/-requests override these too.
var (
	e13Hosts    = 10_000
	e13Requests = 50_000
)

// e14Hosts/e14Requests size E14's computational-economy campaign;
// -hosts/-requests override these too.
var (
	e14Hosts    = 10_000
	e14Requests = 20_000
)

// e15Steps sizes E15's predictive-vs-reactive virtual-time timeline;
// e16Tasks sizes E16's parameter-space study. -steps/-tasks override.
var (
	e15Steps = 96
	e16Tasks = 300
)

func catalogue() []experiment {
	return []experiment{
		{"T1", "Host interface per-op latency (Table 1)", func() *experiments.Table {
			return experiments.Table1HostInterface(200)
		}},
		{"T2", "Reservation type semantics (Table 2)", func() *experiments.Table {
			return experiments.Table2ReservationTypes()
		}},
		{"F1", "Core object hierarchy (Figure 1)", func() *experiments.Table {
			return experiments.Fig1CoreObjectTree(4, 1, 6)
		}},
		{"F2", "RM layering schemes (Figure 2)", func() *experiments.Table {
			return experiments.Fig2Layerings(20)
		}},
		{"F3", "Placement walkthrough (Figure 3)", func() *experiments.Table {
			return experiments.Fig3PlacementTrace()
		}},
		{"F4", "Collection interface (Figure 4)", func() *experiments.Table {
			return experiments.Fig4CollectionOps(nil)
		}},
		{"F5", "Variant selection (Figure 5)", func() *experiments.Table {
			return experiments.Fig5VariantSelection(64, nil)
		}},
		{"F6", "Enactor protocol (Figure 6)", func() *experiments.Table {
			return experiments.Fig6EnactorProtocol()
		}},
		{"F7", "Random scheduler (Figure 7)", func() *experiments.Table {
			return experiments.Fig7RandomScheduler(nil)
		}},
		{"F8", "IRS vs Random (Figures 8-9)", func() *experiments.Table {
			return experiments.Fig8IRS(30)
		}},
		{"E1", "Scheduler intelligence ladder (§6)", func() *experiments.Table {
			return experiments.E1SchedulerLadder()
		}},
		{"E2", "Reservation contention", func() *experiments.Table {
			return experiments.E2ReservationContention(nil)
		}},
		{"E3", "Migration pipeline", func() *experiments.Table {
			return experiments.E3MigrationPipeline(nil)
		}},
		{"E3b", "Trigger-to-outcall latency", func() *experiments.Table {
			return experiments.E3TriggerLatency(50)
		}},
		{"E4", "Function injection (NWS forecasts)", func() *experiments.Table {
			return experiments.E4FunctionInjection(60)
		}},
		{"E5", "Network Objects: comm-aware placement", func() *experiments.Table {
			return experiments.E5NetworkObjects()
		}},
		{"E6", "Monitored rebalancing vs static", func() *experiments.Table {
			return experiments.E6MonitoredRebalancing(40)
		}},
		{"E7", "Placement under injected faults (resilience layer)", func() *experiments.Table {
			return experiments.E7FaultRateResilience(20, faultRates)
		}},
		{"E8", "Concurrent pipeline: indexed queries, parallel enactment", func() *experiments.Table {
			return experiments.E8ConcurrentPipeline(nil, nil)
		}},
		{"E9", "Hierarchical Collections: sharded queries, batched updates", func() *experiments.Table {
			return experiments.E9HierarchicalCollections(0, 0, 0)
		}},
		{"E10", "Rebalancing at scale under migration-path faults", func() *experiments.Table {
			return experiments.E10RebalanceChaosScale(12, 36, 60, 0.25)
		}},
		{"E11", "Overload storms: admission control vs uncontrolled", func() *experiments.Table {
			return experiments.E11OverloadAdmission(nil, 0)
		}},
		{"E12", "Virtual-time scale: open-loop placements, discrete-event clock", func() *experiments.Table {
			return experiments.E12VirtualScale(e12Hosts, e12Requests)
		}},
		{"E13", "Codec boundary: E12 wall-clock with and without wire marshalling", func() *experiments.Table {
			return experiments.E13CodecBoundary(e13Hosts, e13Requests)
		}},
		{"E14", "Computational economy: deadline/budget scheduling vs cost-blind policies", func() *experiments.Table {
			return experiments.E14Economy(e14Hosts, e14Requests)
		}},
		{"E15", "Predictive (NWS forecast) vs reactive rebalancing", func() *experiments.Table {
			return experiments.E15PredictiveRebalancing(e15Steps)
		}},
		{"E16", "Parameter-space study: reusable-reservation pool vs per-task negotiation (Table 2)", func() *experiments.Table {
			return experiments.E16ParamSpaceThroughput(e16Tasks)
		}},
		{"A1", "Ablation: variants vs regenerate", func() *experiments.Table {
			return experiments.A1VariantVsRegenerate(30, 3)
		}},
		{"A2", "Ablation: co-allocation vs optimistic", func() *experiments.Table {
			return experiments.A2CoAllocation(20, 6)
		}},
		{"A3", "Ablation: snapshot vs direct queries", func() *experiments.Table {
			return experiments.A3SnapshotVsDirect(30, 5)
		}},
		{"A4", "Ablation: push vs pull", func() *experiments.Table {
			return experiments.A4PushVsPull(50)
		}},
	}
}

// selectExperiments returns the catalogue entries a -run list names, in
// catalogue order, and (sorted) the IDs in the list that the catalogue
// does not have. An empty list selects everything.
func selectExperiments(cat []experiment, list string) (selected []experiment, unknown []string) {
	if strings.TrimSpace(list) == "" {
		return cat, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		want[strings.TrimSpace(id)] = true
	}
	for _, e := range cat {
		if want[e.id] {
			selected = append(selected, e)
			delete(want, e.id)
		}
	}
	for id := range want {
		unknown = append(unknown, id)
	}
	slices.Sort(unknown)
	return selected, unknown
}

func main() {
	var (
		run       = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		faultrate = flag.Float64("faultrate", -1, "inject this fraction of transport faults in E7 (0..1; default: sweep 0%, 5%, 20%)")
		metrics   = flag.Bool("metrics", false, "after running, dump the accumulated telemetry registry as text")
		asJSON    = flag.Bool("json", false, "emit the result tables as a JSON array instead of text")
		virtual   = flag.Bool("virtual", false, "run E12 at full committed scale (100k hosts / 1M placements; implies -run E12 when -run is unset)")
		hosts     = flag.Int("hosts", 0, "override E12/E13/E14 fleet size (virtual-time hosts)")
		requests  = flag.Int("requests", 0, "override E12/E13/E14 placement count")
		steps     = flag.Int("steps", 0, "override E15's virtual-time step count")
		tasks     = flag.Int("tasks", 0, "override E16's parameter-space task count")
	)
	flag.Parse()
	if *faultrate >= 0 {
		faultRates = []float64{*faultrate}
	}
	if *virtual {
		e12Hosts, e12Requests = 100_000, 1_000_000
		if *run == "" {
			*run = "E12"
		}
	}
	if *hosts > 0 {
		e12Hosts, e13Hosts, e14Hosts = *hosts, *hosts, *hosts
	}
	if *requests > 0 {
		e12Requests, e13Requests, e14Requests = *requests, *requests, *requests
	}
	if *steps > 0 {
		e15Steps = *steps
	}
	if *tasks > 0 {
		e16Tasks = *tasks
	}

	cat := catalogue()
	if *list {
		for _, e := range cat {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	selected, unknown := selectExperiments(cat, *run)
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment IDs %q; try -list\n", unknown)
		os.Exit(1)
	}
	var tables []*experiments.Table
	for _, e := range selected {
		t := e.run()
		if !*asJSON {
			t.Fprint(os.Stdout)
		}
		tables = append(tables, t)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintf(os.Stderr, "encode: %v\n", err)
			os.Exit(1)
		}
	}
	if *metrics {
		// Every experiment's runtimes default to telemetry.Default, so
		// this is the union of all pipeline activity the run produced.
		fmt.Println("## telemetry")
		fmt.Println()
		fmt.Println("```")
		telemetry.Default.WriteText(os.Stdout)
		fmt.Println("```")
	}
}
