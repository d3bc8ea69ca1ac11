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
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"legion/internal/batchq"
	"legion/internal/classobj"
	"legion/internal/collection/daemon"
	"legion/internal/core"
	"legion/internal/economy"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/proto"
	"legion/internal/rebalance"
	"legion/internal/telemetry"
	"legion/internal/vault"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7777", "TCP address to serve on")
		domain   = flag.String("domain", "uva", "administrative domain name")
		nHosts   = flag.Int("hosts", 4, "number of interactive Unix hosts")
		nBatch   = flag.Int("batch", 0, "number of batch-queue hosts")
		cpus     = flag.Int("cpus", 4, "CPUs per host")
		memMB    = flag.Int("mem", 1024, "memory per host (MB)")
		arch     = flag.String("arch", "x86", "host architecture attribute")
		osName   = flag.String("os", "Linux", "host OS attribute")
		reassess = flag.Duration("reassess", 2*time.Second, "host state reassessment interval")
		seed     = flag.Int64("seed", 1, "scheduling RNG seed")
		metrics  = flag.String("metrics-addr", "", "HTTP address for the /metrics, /spans and /debug/pprof/ endpoints (empty disables)")

		maxInFlight  = flag.Int("max-inflight", 0, "Enactor admission control: concurrent placements admitted (0 disables)")
		admissionQ   = flag.Int("admission-queue", 0, "Enactor admission wait-queue depth (0 = 4×max-inflight)")
		shedWater    = flag.Float64("shed-watermark", 0, "host occupancy fraction above which low-priority reservations are shed (0 disables)")
		shedMinPrio  = flag.Int("shed-min-priority", 1, "lowest priority that still rides through above the watermark")
		reapInterval = flag.Duration("reap-interval", 30*time.Second, "host reservation reaper interval (0 disables the reaper)")

		hostPrice    = flag.Float64("host-price", 0, "advertised per-instance-hour price on every host ($host_price); >0 enables the economy ledger")
		tenantBudget = flag.String("tenant-budget", "", "comma-separated tenant=budget pairs (credit units) to open on the economy ledger, e.g. astro=100,bio=50; enables the ledger")

		rebalanceOn   = flag.Bool("rebalance", false, "run the rebalance subsystem: overload triggers migrate objects off hot hosts")
		rebalanceTh   = flag.Float64("rebalance-threshold", 0.8, "host load above which the overload trigger fires")
		rebalanceCool = flag.Duration("rebalance-cooldown", 10*time.Second, "per-host hysteresis window between sheds")
		rebalanceRate = flag.Float64("rebalance-rate", 0, "global migrations/sec cap (0 = unlimited)")
		rebalanceSwp  = flag.Duration("rebalance-sweep", time.Minute, "reconcile sweep interval (0 disables the sweep)")

		rebalancePred = flag.Bool("rebalance-predictive", false, "rebalance on NWS forecasts: a Collection daemon publishes $host_load_history and a periodic scan sheds hosts whose FORECAST load crosses the watermark (implies -rebalance)")
		forecastWater = flag.Float64("rebalance-forecast-watermark", 0.8, "forecast load above which the predictive scan sheds (predictive mode)")
		forecastScan  = flag.Duration("rebalance-forecast-scan", 15*time.Second, "forecast scan interval (predictive mode)")
		forecastHist  = flag.Int("rebalance-history", 16, "load-history samples the Collection daemon publishes per host (predictive mode)")
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

	ms := core.New(*domain, core.Options{
		Seed:            *seed,
		MaxInFlight:     *maxInFlight,
		AdmissionQueue:  *admissionQ,
		ShedWatermark:   *shedWater,
		ShedMinPriority: *shedMinPrio,
		Economy:         *hostPrice > 0 || *tenantBudget != "",
	})
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

	// startHost wires the periodic loops every host needs: state
	// reassessment pushes into the Collection, and the reservation
	// reaper reclaims unconfirmed grants whose clients died between
	// make_reservation and confirmation (without it those slots free
	// only lazily, at the next reservation request).
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	startHost := func(h *host.Host) {
		stops = append(stops, h.StartReassessing(*reassess))
		if *reapInterval > 0 {
			stops = append(stops, h.StartReaper(*reapInterval))
		}
	}

	v := ms.AddVault(vault.Config{Zone: *domain})
	for i := 0; i < *nHosts; i++ {
		startHost(ms.AddHost(host.Config{
			Arch: *arch, OS: *osName, OSVersion: "2.2",
			CPUs: *cpus, MemoryMB: *memMB, Zone: *domain,
			Price:  *hostPrice,
			Vaults: []loid.LOID{v.LOID()},
		}))
	}
	for i := 0; i < *nBatch; i++ {
		q := batchq.New(batchq.Config{
			Name: fmt.Sprintf("queue-%d", i), Slots: *cpus,
			DispatchDelay: 50 * time.Millisecond,
		})
		defer q.Close()
		startHost(ms.AddHost(host.Config{
			Arch: *arch, OS: *osName, OSVersion: "2.2",
			CPUs: *cpus, MemoryMB: *memMB, Zone: *domain,
			Price:  *hostPrice,
			Vaults: []loid.LOID{v.LOID()},
			Queue:  q,
		}))
	}

	// A default user class so clients can place objects immediately.
	workerClass := ms.DefineClass("Worker", []proto.Implementation{{Arch: *arch, OS: *osName}})

	if *rebalanceOn || *rebalancePred {
		cfg := rebalance.Config{
			Classes:    []*classobj.Class{workerClass},
			Cooldown:   *rebalanceCool,
			RatePerSec: *rebalanceRate,
		}
		var pol *rebalance.Predictive
		if *rebalancePred {
			pol = &rebalance.Predictive{Watermark: *forecastWater}
			cfg.Policy = pol
		}
		rb := rebalance.New(ms, cfg)
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
			d := ms.NewDaemonConfig(daemon.Config{Interval: *reassess, HistoryLen: *forecastHist})
			d.Start()
			defer d.Stop()
			rb.StartForecastScan(*forecastScan, pol)
			log.Printf("legiond: predictive rebalancer on (forecast watermark %.2f, scan %v, history %d)",
				*forecastWater, *forecastScan, *forecastHist)
		}
		log.Printf("legiond: rebalancer on (threshold %.2f, cooldown %v, rate %.2f/s, sweep %v)",
			*rebalanceTh, *rebalanceCool, *rebalanceRate, *rebalanceSwp)
	}

	bound, err := ms.ListenAndServe(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("legiond: domain %q serving on %s", *domain, bound)
	log.Printf("legiond: %d unix + %d batch hosts, %d vault(s), class %q defined",
		*nHosts, *nBatch, 1, "Worker")
	log.Printf("legiond: collection=%v enactor=%v", ms.CollectionLOID(), ms.Enactor.LOID())
	if *maxInFlight > 0 || *shedWater > 0 {
		log.Printf("legiond: admission max-inflight=%d queue=%d, shed watermark=%.2f min-priority=%d, reap every %v",
			*maxInFlight, *admissionQ, *shedWater, *shedMinPrio, *reapInterval)
	}

	// Periodic status line.
	go func() {
		t := time.NewTicker(10 * time.Second)
		defer t.Stop()
		for range t.C {
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
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Println("legiond: shutting down")
}
