// Command legiond runs one Legion metasystem node: a set of Host and
// Vault objects plus the RMI service objects (Collection, Enactor,
// Monitor) and a bootstrap directory, served over TCP.
//
// Multiple legiond processes plus legion-run clients form a
// multi-process metasystem — the "multi-process emulation" of the
// paper's multi-host testbed. Typical use:
//
//	legiond -addr 127.0.0.1:7777 -domain uva -hosts 4 -batch 2
//	legion-run -addr 127.0.0.1:7777 -domain uva -count 6 -scheduler irs
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"legion/internal/classobj"
	"legion/internal/collection/daemon"
	"legion/internal/economy"
	"legion/internal/proto"
	"legion/internal/rebalance"
	"legion/internal/sim"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

func main() {
	// The node is one sim.Spec: each flag sets the field it names, on
	// the spec, on the template every host is copied from, or on the
	// rebalancer's and the daemon's configs.
	var (
		spec  sim.Spec
		tmpl  = sim.HostSpec{OSVer: "2.2"}
		rbCfg rebalance.Config
		pred  rebalance.Predictive
		dcfg  daemon.Config
	)
	flag.StringVar(&spec.Domain, "domain", "uva", "administrative domain name")
	flag.IntVar(&tmpl.CPUs, "cpus", 4, "CPUs per host")
	flag.IntVar(&tmpl.MemoryMB, "mem", 1024, "memory per host (MB)")
	flag.StringVar(&tmpl.Arch, "arch", "x86", "host architecture attribute")
	flag.StringVar(&tmpl.OS, "os", "Linux", "host OS attribute")
	flag.DurationVar(&dcfg.Interval, "reassess", 2*time.Second, "host state reassessment interval")
	flag.Int64Var(&spec.Options.Seed, "seed", 1, "scheduling RNG seed")
	flag.IntVar(&spec.Options.MaxInFlight, "max-inflight", 0, "Enactor admission control: concurrent placements admitted (0 disables)")
	flag.IntVar(&spec.Options.AdmissionQueue, "admission-queue", 0, "Enactor admission wait-queue depth (0 = 4×max-inflight)")
	flag.Float64Var(&spec.Options.ShedWatermark, "shed-watermark", 0, "host occupancy fraction above which low-priority reservations are shed (0 disables)")
	flag.Float64Var(&tmpl.Price, "host-price", 0, "advertised per-instance-hour price on every host ($host_price); >0 enables the economy ledger")
	flag.DurationVar(&rbCfg.Cooldown, "rebalance-cooldown", 10*time.Second, "per-host hysteresis window between sheds")
	flag.Float64Var(&rbCfg.RatePerSec, "rebalance-rate", 0, "global migrations/sec cap (0 = unlimited)")
	flag.Float64Var(&pred.Watermark, "rebalance-forecast-watermark", 0.8, "forecast load above which the predictive scan sheds (predictive mode)")
	flag.IntVar(&dcfg.HistoryLen, "rebalance-history", 16, "load-history samples the Collection daemon publishes per host (predictive mode)")
	var (
		addr         = flag.String("addr", "127.0.0.1:7777", "TCP address to serve on")
		nHosts       = flag.Int("hosts", 4, "number of interactive Unix hosts")
		nBatch       = flag.Int("batch", 0, "number of batch-queue hosts")
		metrics      = flag.String("metrics-addr", "", "HTTP address for the /metrics, /spans and /debug/pprof/ endpoints (empty disables)")
		reapInterval = flag.Duration("reap-interval", 30*time.Second, "host reservation reaper interval (0 disables the reaper)")
		tenantBudget = flag.String("tenant-budget", "", "comma-separated tenant=budget pairs (credit units) to open on the economy ledger, e.g. astro=100,bio=50; enables the ledger")

		rebalanceOn   = flag.Bool("rebalance", false, "run the rebalance subsystem: overload triggers migrate objects off hot hosts")
		rebalanceTh   = flag.Float64("rebalance-threshold", 0.8, "host load above which the overload trigger fires")
		rebalanceSwp  = flag.Duration("rebalance-sweep", time.Minute, "reconcile sweep interval (0 disables the sweep)")
		rebalancePred = flag.Bool("rebalance-predictive", false, "rebalance on NWS forecasts: a Collection daemon publishes $host_load_history and a periodic scan sheds hosts whose FORECAST load crosses the watermark (implies -rebalance)")
		forecastScan  = flag.Duration("rebalance-forecast-scan", 15*time.Second, "forecast scan interval (predictive mode)")
	)
	flag.Parse()

	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.Default.Handler())
		mux.Handle("/spans", telemetry.Default.SpanHandler())
		// Profiles of the running node (go tool pprof http://<addr>/debug/pprof/profile):
		// Index serves heap, goroutine, allocs, block and mutex by name.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("legiond: telemetry on http://%s/metrics (spans at /spans, profiles at /debug/pprof/)", *metrics)
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				log.Printf("legiond: telemetry endpoint: %v", err)
			}
		}()
	}

	spec.Options.Economy = tmpl.Price > 0 || *tenantBudget != ""
	tmpl.Zone = spec.Domain
	for i := range *nHosts + *nBatch {
		h := tmpl
		h.Batch = i >= *nHosts
		spec.Hosts = append(spec.Hosts, h)
	}
	fleet := sim.New(spec)
	ms := fleet.MS
	defer ms.Close()

	if *tenantBudget != "" {
		led := ms.Ledger()
		for _, kv := range strings.Split(*tenantBudget, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				log.Fatalf("legiond: -tenant-budget entry %q is not tenant=budget", kv)
			}
			units, err := strconv.ParseFloat(val, 64)
			if err != nil {
				log.Fatalf("legiond: -tenant-budget %q: %v", kv, err)
			}
			led.Open(name, economy.ToCredits(units))
			log.Printf("legiond: economy account %q opened with budget %.2f", name, units)
		}
	}

	// The periodic loops every host needs: state reassessment pushes
	// into the Collection, and the reservation reaper reclaims
	// unconfirmed grants whose clients died between make_reservation and
	// confirmation (without it those slots free only lazily, at the next
	// reservation request).
	for _, h := range fleet.Hosts {
		defer h.StartReassessing(dcfg.Interval)()
		if *reapInterval > 0 {
			defer h.StartReaper(*reapInterval)()
		}
	}

	// A default user class so clients can place objects immediately.
	workerClass := ms.DefineClass("Worker", []proto.Implementation{{Arch: tmpl.Arch, OS: tmpl.OS}})

	if *rebalanceOn || *rebalancePred {
		rbCfg.Classes = []*classobj.Class{workerClass}
		if *rebalancePred {
			rbCfg.Policy = &pred
		}
		rb := rebalance.New(ms, rbCfg)
		if err := rb.Start(); err != nil {
			log.Fatalf("rebalance: %v", err)
		}
		defer rb.Stop()
		if *rebalanceSwp > 0 {
			rb.StartSweeping(*rebalanceSwp)
		}
		if err := ms.WatchLoad(context.Background(), *rebalanceTh); err != nil {
			log.Fatalf("rebalance: watch: %v", err)
		}
		if *rebalancePred {
			// The forecast pipeline: the daemon's sweep records each
			// host's rolling load history into the Collection, and the
			// periodic scan extrapolates it, shedding hosts whose
			// forecast — not current — load crosses the watermark.
			d := ms.NewDaemon(dcfg)
			d.Start()
			defer d.Stop()
			rb.StartForecastScan(*forecastScan, &pred)
			log.Printf("legiond: predictive rebalancer on (forecast watermark %.2f, scan %v, history %d)",
				pred.Watermark, *forecastScan, dcfg.HistoryLen)
		}
		log.Printf("legiond: rebalancer on (threshold %.2f, cooldown %v, rate %.2f/s, sweep %v)",
			*rebalanceTh, rbCfg.Cooldown, rbCfg.RatePerSec, *rebalanceSwp)
	}

	bound, err := ms.ListenAndServe(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("legiond: domain %q serving on %s", spec.Domain, bound)
	log.Printf("legiond: %d unix + %d batch hosts, %d vault(s), class %q defined",
		*nHosts, *nBatch, len(ms.Vaults()), "Worker")
	log.Printf("legiond: collection=%v enactor=%v", ms.CollectionLOID(), ms.Enactor.LOID())
	if spec.Options.MaxInFlight > 0 || spec.Options.ShedWatermark > 0 {
		log.Printf("legiond: admission max-inflight=%d queue=%d, shed watermark=%.2f, reap every %v",
			spec.Options.MaxInFlight, spec.Options.AdmissionQueue, spec.Options.ShedWatermark, *reapInterval)
	}

	// Periodic status line.
	defer vclock.Every(vclock.Wall, 10*time.Second, func() {
		total := 0
		for _, h := range ms.Hosts() {
			total += h.RunningCount()
		}
		if ms.Collection != nil {
			q, u := ms.Collection.Stats()
			log.Printf("legiond: %d objects running, collection %d queries / %d updates",
				total, q, u)
		} else {
			log.Printf("legiond: %d objects running", total)
		}
	})()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Println("legiond: shutting down")
}
