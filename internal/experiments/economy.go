package experiments

import (
	"fmt"
	"sync"
	"time"

	"legion/internal/economy"
	"legion/internal/sched"
	"legion/internal/scheduler"
	"legion/internal/sim"
)

// economyTenants is the fixed tenant roster of the E14 campaign: four
// competing projects drawing on separate budgets.
var economyTenants = []string{"astro", "bio", "cfd", "hep"}

// economyDeadline is request i's scheduling deadline: alternating strict
// and relaxed classes, both feasible on the archetype fleet (the
// slowest single-occupancy completion is ~2.3h).
func economyDeadline(i int) time.Duration {
	if i%2 == 0 {
		return 3 * time.Hour
	}
	return 6 * time.Hour
}

// economySpec stamps request i's reservation with its tenant and
// deadline — the per-request identity the ledger and the DeadlineBudget
// generator act on.
func economySpec(i int) sched.ReservationSpec {
	return sched.ReservationSpec{
		Share: true, Reuse: true, Duration: time.Hour,
		Tenant:   economyTenants[i%len(economyTenants)],
		Deadline: economyDeadline(i),
	}
}

// economyRun is one E14 campaign outcome: placement tallies plus the
// ledger's verdict on what the placements cost.
type economyRun struct {
	campaignRun
	// spent is the gross ledger spend across all tenants (refunds do
	// not decrement it — the number compares what each policy bought,
	// not what it kept).
	spent economy.Credits
	// hit/judged count successful placements whose modelled completion
	// fits the request's deadline.
	hit, judged int
	audit       []string
}

// runEconomyCampaign drives one policy through the placement pipeline on
// a priced fleet under a virtual clock, stamping each request with
// spec(i) (nil spec leaves the driver's plain unconstrained default —
// the differential test's configuration), and reads the bill off the
// ledger afterwards.
func runEconomyCampaign(gen scheduler.Generator, hosts, requests int, spec func(int) sched.ReservationSpec, keepTrace bool) economyRun {
	const est = time.Hour // matches the reservation duration the specs carry
	var (
		run   economyRun
		mu    sync.Mutex
		fleet *sim.Fleet
		led   *economy.Ledger
	)
	run.campaignRun = virtualCampaign{
		domain: "econ", seed: 13, economy: true,
		specs: sim.EconomySpecs, zones: []string{"z1", "z2"},
		hosts: hosts, requests: requests,
		built: func(f *sim.Fleet) {
			fleet, led = f, f.MS.Ledger()
			for _, tn := range economyTenants {
				led.Open(tn, economy.ToCredits(1e9))
			}
		},
		drive: sim.DriverConfig{
			Generator: gen,
			Spec:      spec,
			Observe: func(i int, out *scheduler.Outcome) {
				if spec == nil {
					return
				}
				dl := spec(i).Deadline
				if dl <= 0 {
					return
				}
				fit := fleet.Makespan(out.Feedback.Resolved, est) <= dl
				mu.Lock()
				run.judged++
				if fit {
					run.hit++
				}
				mu.Unlock()
			},
		},
		keepTrace: keepTrace,
	}.run()
	for _, a := range led.Accounts() {
		run.spent += a.Spent
	}
	run.audit = led.Audit()
	return run
}

// economyLadder is the fixed policy lineup E14 (and its tests) compare.
func economyLadder() []struct {
	Name string
	Gen  scheduler.Generator
} {
	return []struct {
		Name string
		Gen  scheduler.Generator
	}{
		{"random", scheduler.Random{}},
		{"irs", scheduler.IRS{NSched: 4}},
		{"deadline-budget", scheduler.DeadlineBudget{Estimate: time.Hour}},
	}
}

// E14Economy is the computational-economy benchmark (DESIGN.md §15,
// Nimrod/G's core claim transplanted into Legion's negotiation
// pipeline): the same tenant/deadline-stamped workload placed by a
// cost-blind baseline (Random), the variant-bearing baseline (IRS), and
// the DeadlineBudget economy generator, on one priced 10k-host fleet
// under a virtual clock. Every placement is billed to its tenant's
// ledger account at the host-quoted price; the table compares what each
// policy bought (gross spend) and whether the placements it made fit
// their deadlines under the makespan model.
//
// Expected shape: deadline-budget meets >=90% of the (feasible)
// deadlines at strictly lower gross spend than either cost-blind
// policy, because it buys the cheapest deadline-feasible hosts while
// Random/IRS pay the fleet-average price.
//
// hosts/requests <= 0 default to 10,000 hosts and 20,000 placements.
func E14Economy(hosts, requests int) *Table {
	if hosts <= 0 {
		hosts = 10_000
	}
	if requests <= 0 {
		requests = 20_000
	}
	t := &Table{
		ID:    "E14",
		Title: "Computational economy: deadline/budget scheduling vs cost-blind policies (virtual clock)",
		Header: []string{"scheduler", "hosts", "requests", "ok", "shed", "failed",
			"deadline hit", "gross spend", "spend vs random", "p99", "ledger", "leaks"},
	}
	var base economy.Credits
	for ri, row := range economyLadder() {
		r := runEconomyCampaign(row.Gen, hosts, requests, economySpec, false)
		if ri == 0 {
			base = r.spent
		}
		relative := "-"
		if ri > 0 && base > 0 {
			relative = fmt.Sprintf("%+.0f%%", 100*(float64(r.spent)/float64(base)-1))
		}
		hitPct := "-"
		if r.judged > 0 {
			hitPct = fmt.Sprintf("%.1f%%", 100*float64(r.hit)/float64(r.judged))
		}
		ledgerState := "conserved"
		if len(r.audit) > 0 {
			ledgerState = fmt.Sprintf("VIOLATED(%d)", len(r.audit))
		}
		t.AddRow(row.Name, hosts, requests, r.res.Succeeded, r.res.Shed, r.res.Failed,
			hitPct, fmt.Sprintf("%.1f", r.spent.Units()), relative,
			r.res.Percentile(0.99), ledgerState, r.leaks)
	}
	t.Notes = append(t.Notes,
		"every request carries a tenant (4-way round-robin) and an alternating 3h/6h deadline; reservations are billed at $host_price x duration and refunded on teardown",
		"gross spend = sum of tenant Spent (refunds excluded): what the policy bought, not what it kept",
		"deadline hit = modelled completion (makespan model, live load) within the request's deadline",
		"ledger = per-tenant conservation audit after the run (budget = remaining + outstanding, refunds <= spend)")
	return t
}
