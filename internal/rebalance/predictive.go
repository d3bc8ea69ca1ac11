package rebalance

import (
	"cmp"
	"context"
	"slices"
	"time"

	"legion/internal/classobj"
	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/nws"
	"legion/internal/proto"
	"legion/internal/scheduler"
	"legion/internal/vclock"
)

// ForecastTrigger names the synthetic trigger the forecast scan fires.
// A Monitor outcall carries the trigger name that fired; the scan uses
// this one so operators can tell predictive sheds from reactive ones in
// the event stream.
const ForecastTrigger = "forecast_overload"

// Predictive is the forecast-driven rebalancing policy: where
// LeastLoaded reacts to a host that IS overloaded, Predictive moves
// instances off hosts whose NWS forecast says they are ABOUT to be —
// before the watermark is crossed, while the move is still cheap (the
// PAPERS.md adaptive-scheduling line: migration should anticipate the
// load spike, not chase it).
//
// It consumes the rolling $host_load_history series the Collection
// daemon publishes (Config.HistoryLen), forecasting with Predictor —
// both for the source (is the event worth acting on?) and for ranking
// destinations (coolest forecast wins, same vault/zone tiers as
// LeastLoaded). Hosts whose records carry no history fall back to their
// instantaneous load, so on a history-less fleet the policy degrades to
// exactly LeastLoaded's behaviour.
//
// Events reach Plan two ways: ordinary overload triggers (the reactive
// path still works — a forecast can miss) and the synthetic
// ForecastTrigger events a Rebalancer.StartForecastScan sweep fires for
// hosts predicted to cross the watermark. Either way the moves execute
// through the same cooldown, rate-limit, per-instance-claim and
// EnsureRunning machinery as every other policy.
type Predictive struct {
	// Watermark is the forecast load at which a host is considered
	// about-to-overload (default 0.8): sources forecast at or above it
	// shed, destinations forecast at or above it are avoided.
	Watermark float64
	// MaxShedPerEvent bounds how many instances one event may move off
	// the source host (default 1). Candidate destinations are the
	// records defining $host_load: history is optional on purpose, a
	// history-less host is still a usable destination, judged by its
	// current load.
	MaxShedPerEvent int
	// Predictor turns a load history into a forecast; nil means an
	// adaptive nws.Bank over the default predictor bank plus
	// nws.Trend{K: 8} — the extrapolating member is what lets the scan
	// flag a steadily heating host before its load crosses the
	// watermark.
	Predictor nws.Predictor
}

func (p *Predictive) predictor() nws.Predictor {
	if p.Predictor != nil {
		return p.Predictor
	}
	return nws.Bank{Members: append(nws.DefaultBank(), nws.Trend{K: 8})}
}

func (p *Predictive) watermark() float64 {
	if p.Watermark > 0 {
		return p.Watermark
	}
	return 0.8
}

// forecastOf reduces one host record to its expected near-term load:
// pred (built once per plan or scan by predictor()) over its published
// history, or the instantaneous load when no history has been published
// (the LeastLoaded degradation).
func forecastOf(pred nws.Predictor, hi *scheduler.HostInfo) float64 {
	if len(hi.LoadHistory) == 0 {
		return hi.Load
	}
	return pred.Predict(hi.LoadHistory)
}

// Plan implements Policy.
func (p *Predictive) Plan(ctx context.Context, ev proto.NotifyArgs, ms *core.Metasystem, classes []*classobj.Class) ([]Move, error) {
	victims := victimsOn(ev.Source, classes, max(p.MaxShedPerEvent, 1))
	if len(victims) == 0 {
		return nil, nil
	}
	cands := candidateHosts(ctx, ev.Source, ms, "")

	// Forecast each candidate once: ranking consults the key O(n log n)
	// times per victim, and Bank replays its whole member bank per call.
	pred := p.predictor()
	forecast := make(map[loid.LOID]float64, len(cands))
	for i := range cands {
		forecast[cands[i].LOID] = forecastOf(pred, &cands[i])
	}
	// Keep destinations not themselves predicted to cross the
	// watermark — shedding onto tomorrow's hot spot just schedules the
	// next migration. If every candidate is predicted hot, fall back to
	// the full set: moving to the coolest forecast still beats staying.
	cool := cands[:0:0]
	for _, hi := range cands {
		if forecast[hi.LOID] < p.watermark() {
			cool = append(cool, hi)
		}
	}
	if len(cool) > 0 {
		cands = cool
	}
	return spread(ms, victims, cands,
		func(hi *scheduler.HostInfo) float64 { return forecast[hi.LOID] }), nil
}

// StartForecastScan runs the predictive sweep every interval until
// Stop: it queries the Collection for host records carrying a published
// load history, forecasts each with the policy's predictor, and for
// every host predicted at or above the watermark synthesizes a
// ForecastTrigger event through the same handle path a Monitor outcall
// takes — so per-host cooldown, the global migration rate limit,
// per-instance claims and the EnsureRunning failure path all apply to
// predictive sheds unchanged. The Rebalancer's policy should be (or
// behave like) a *Predictive; the scan only decides WHICH hosts get an
// event, the policy still plans the moves.
func (r *Rebalancer) StartForecastScan(interval time.Duration, p *Predictive) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.endScan == nil {
		r.endScan = vclock.Every(r.clock, interval, func() {
			ctx := r.clock.WithDeadline(context.Background(), r.clock.Now().Add(planTimeout))
			r.forecastScan(ctx, p)
			vclock.End(ctx)
		})
	}
}

// forecastScan performs one predictive pass: every host whose forecast
// crosses the watermark gets a synthetic trigger event, hottest
// forecast first so the rate limiter spends its tokens where the spike
// is steepest.
func (r *Rebalancer) forecastScan(ctx context.Context, p *Predictive) {
	infos, _, err := scheduler.QueryHostsPartial(ctx, r.ms.Env(), "defined($host_load_history)")
	if err != nil {
		return
	}
	type hot struct {
		loid     loid.LOID
		forecast float64
	}
	var hots []hot
	pred := p.predictor()
	for i := range infos {
		hi := &infos[i]
		if hi.Down || len(hi.LoadHistory) == 0 {
			continue
		}
		if f := forecastOf(pred, hi); f >= p.watermark() {
			hots = append(hots, hot{loid: hi.LOID, forecast: f})
		}
	}
	// infos arrives LOID-sorted, so this stable sort keeps the scan
	// deterministic under the virtual clock.
	slices.SortStableFunc(hots, func(a, b hot) int { return cmp.Compare(b.forecast, a.forecast) })
	now := r.clock.Now()
	for _, h := range hots {
		r.handle(proto.NotifyArgs{Source: h.loid, Trigger: ForecastTrigger, Time: now})
	}
}
