// Package nws provides Network Weather Service-style resource
// forecasting.
//
// The paper (§3.2) motivates Collection function injection with exactly
// this use: "This capability is especially important to users of the
// Network Weather Service, which predicts future resource availability
// based on statistical analysis of past behavior." (Wolski, HPDC-6.)
//
// Following the NWS design, several simple predictors run side by side —
// last value, running mean, sliding-window mean/median, exponential
// smoothing — and an adaptive meta-predictor, Bank, scores each one's
// recent one-step-ahead error over the history it is handed and answers
// with the forecast of whichever predictor has been most accurate lately.
// Every predictor is a pure function of a history slice: the Collection
// daemon keeps the rolling window, so no predictor keeps state of its own.
//
// The bridge to the RMI is InjectForecast: it registers a
// "forecast_load" query function on a Collection, computing a prediction
// from the record's $host_load_history attribute, so schedulers can write
// queries like "forecast_load() < 0.5" — dynamically computed description
// information, per the paper.
package nws

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"legion/internal/attr"
	"legion/internal/collection"
	"legion/internal/query"
)

// Predictor forecasts the next value of a series from its history.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Predict returns the forecast for the next observation. The history
	// is ordered oldest first and is non-empty.
	Predict(history []float64) float64
}

// LastValue predicts the most recent observation.
type LastValue struct{}

// Name implements Predictor.
func (LastValue) Name() string { return "last" }

// Predict implements Predictor.
func (LastValue) Predict(h []float64) float64 { return h[len(h)-1] }

// RunningMean predicts the mean of the full history.
type RunningMean struct{}

// Name implements Predictor.
func (RunningMean) Name() string { return "mean" }

// Predict implements Predictor.
func (RunningMean) Predict(h []float64) float64 {
	s := 0.0
	for _, v := range h {
		s += v
	}
	return s / float64(len(h))
}

// WindowMean predicts the mean of the last K observations.
type WindowMean struct {
	// K is the window size; values < 1 behave as 1.
	K int
}

// Name implements Predictor.
func (w WindowMean) Name() string { return fmt.Sprintf("win-mean-%d", w.K) }

// Predict implements Predictor.
func (w WindowMean) Predict(h []float64) float64 {
	k := w.K
	if k < 1 {
		k = 1
	}
	if k > len(h) {
		k = len(h)
	}
	s := 0.0
	for _, v := range h[len(h)-k:] {
		s += v
	}
	return s / float64(k)
}

// WindowMedian predicts the median of the last K observations — NWS's
// robust choice under spiky load.
type WindowMedian struct {
	// K is the window size; values < 1 behave as 1.
	K int
}

// Name implements Predictor.
func (w WindowMedian) Name() string { return fmt.Sprintf("win-median-%d", w.K) }

// Predict implements Predictor.
func (w WindowMedian) Predict(h []float64) float64 {
	k := w.K
	if k < 1 {
		k = 1
	}
	if k > len(h) {
		k = len(h)
	}
	win := append([]float64(nil), h[len(h)-k:]...)
	sort.Float64s(win)
	mid := len(win) / 2
	if len(win)%2 == 1 {
		return win[mid]
	}
	return (win[mid-1] + win[mid]) / 2
}

// ExpSmoothing predicts with exponential smoothing:
// s(t) = alpha*x(t) + (1-alpha)*s(t-1).
type ExpSmoothing struct {
	// Alpha in (0,1]; values outside are clamped.
	Alpha float64
}

// Name implements Predictor.
func (e ExpSmoothing) Name() string { return fmt.Sprintf("exp-%.2f", e.Alpha) }

// Predict implements Predictor.
func (e ExpSmoothing) Predict(h []float64) float64 {
	alpha := e.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	s := h[0]
	for _, v := range h[1:] {
		s = alpha*v + (1-alpha)*s
	}
	return s
}

// Trend predicts by least-squares linear extrapolation over the last K
// observations: the one predictor in the kit whose forecast can leave
// the range of its history, which is what makes rebalancing on it
// predictive — a steadily heating host is forecast above the watermark
// while its current load is still below it. Not part of DefaultBank:
// extrapolation is the right tool for monotone ramps and the wrong one
// for noise, so callers opt in (rebalance.Predictive does).
type Trend struct {
	// K is the fit window; values < 2 behave as 2.
	K int
	// Horizon is how many steps past the last observation the fitted
	// line is evaluated (default 1). Controllers whose actuation period
	// spans several samples forecast a full period ahead — predicting
	// one sample out when you can only act every third sample still
	// reacts too late.
	Horizon int
}

// Name implements Predictor.
func (t Trend) Name() string {
	if t.Horizon > 1 {
		return fmt.Sprintf("trend-%d@%d", t.K, t.Horizon)
	}
	return fmt.Sprintf("trend-%d", t.K)
}

func (t Trend) horizon() int {
	if t.Horizon < 1 {
		return 1
	}
	return t.Horizon
}

// Predict implements Predictor.
func (t Trend) Predict(h []float64) float64 {
	k := t.K
	if k < 2 {
		k = 2
	}
	if k > len(h) {
		k = len(h)
	}
	return trendFit(h[len(h)-k:], t.horizon())
}

// trendFit least-squares-fits win (indices 0..m-1) and evaluates the
// line at index m-1+ahead. A single point extrapolates flat.
func trendFit(win []float64, ahead int) float64 {
	m := len(win)
	if m < 2 {
		return win[0]
	}
	var sx, sy, sxx, sxy float64
	for i, v := range win {
		x := float64(i)
		sx += x
		sy += v
		sxx += x * x
		sxy += x * v
	}
	n := float64(m)
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	return intercept + slope*(n-1+float64(ahead))
}

// DefaultErrorWindow is how many trailing one-step-ahead errors Bank
// scores each member on. NWS windows its error tracking for the same
// reason: a meta-predictor scoring on all-time error freezes onto
// whichever predictor won the earliest regime and never adapts when the
// series changes character.
const DefaultErrorWindow = 64

// DefaultBank returns the standard predictor bank Bank uses when given
// none.
func DefaultBank() []Predictor {
	return []Predictor{
		LastValue{}, RunningMean{}, WindowMean{K: 5},
		WindowMedian{K: 5}, ExpSmoothing{Alpha: 0.5},
	}
}

// Bank is the adaptive meta-predictor. Collection queries hand it a fresh
// history slice on every call, so it keeps no per-series state: Predict
// replays every member over the tail of the supplied history, scoring
// one-step-ahead squared errors, and answers with the best member's
// forecast. With a short history ring — the Collection daemon publishes a
// few dozen samples — the replay is cheap; DefaultErrorWindow bounds
// the number of replays regardless.
type Bank struct {
	// Members to score; DefaultBank when empty.
	Members []Predictor
}

// Name implements Predictor.
func (Bank) Name() string { return "adaptive" }

// Predict implements Predictor.
func (b Bank) Predict(h []float64) float64 {
	members := b.Members
	if len(members) == 0 {
		members = DefaultBank()
	}
	if len(h) < 2 {
		return h[0]
	}
	start := max(len(h)-DefaultErrorWindow, 1)
	best, bestSE := 0, math.Inf(1)
	for i, p := range members {
		se := 0.0
		for j := start; j < len(h); j++ {
			e := p.Predict(h[:j]) - h[j]
			se += e * e
		}
		if se < bestSE {
			best, bestSE = i, se
		}
	}
	return members[best].Predict(h)
}

// HistoryAttr converts a series to the attribute value stored as
// $host_load_history.
func HistoryAttr(h []float64) attr.Value {
	vals := make([]attr.Value, len(h))
	for i, v := range h {
		vals[i] = attr.Float(v)
	}
	return attr.List(vals...)
}

// HistoryFromAttr parses a $host_load_history attribute value back into
// a series.
func HistoryFromAttr(v attr.Value) ([]float64, error) {
	if v.Kind() != attr.KindList || v.Len() == 0 {
		return nil, errors.New("nws: host_load_history missing or empty")
	}
	out := make([]float64, v.Len())
	for i := 0; i < v.Len(); i++ {
		f, ok := v.At(i).AsFloat()
		if !ok {
			return nil, fmt.Errorf("nws: history element %d is %s", i, v.At(i).Kind())
		}
		out[i] = f
	}
	return out, nil
}

// InjectForecast registers the "forecast_load" function on a Collection:
// it predicts the next load of the record under evaluation from its
// $host_load_history attribute using the given predictor. Nil means the
// adaptive default — Bank{} over DefaultBank(), which re-scores the
// bank against each record's own history on every evaluation (queries
// hand the function a bare record, so there is no per-record identity
// to hang state on). An optional string argument selects a different
// history attribute.
func InjectForecast(c *collection.Collection, p Predictor) {
	if p == nil {
		p = Bank{}
	}
	c.InjectFunc("forecast_load", func(rec query.Record, args []attr.Value) (attr.Value, error) {
		attrName := "host_load_history"
		if len(args) == 1 && args[0].Kind() == attr.KindString {
			attrName = args[0].Str()
		} else if len(args) > 1 {
			return attr.Value{}, errors.New("forecast_load wants at most one attribute-name argument")
		}
		v, ok := rec.Lookup(attrName)
		if !ok {
			return attr.Value{}, fmt.Errorf("record has no $%s", attrName)
		}
		h, err := HistoryFromAttr(v)
		if err != nil {
			return attr.Value{}, err
		}
		return attr.Float(p.Predict(h)), nil
	})
}
