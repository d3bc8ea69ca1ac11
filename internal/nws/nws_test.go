package nws

import (
	"math"
	"testing"
	"testing/quick"

	"legion/internal/attr"
	"legion/internal/collection"
	"legion/internal/loid"
	"legion/internal/orb"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestBasicPredictors(t *testing.T) {
	h := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    Predictor
		want float64
	}{
		{LastValue{}, 5},
		{RunningMean{}, 3},
		{WindowMean{K: 2}, 4.5},
		{WindowMean{K: 100}, 3},   // clamps to len
		{WindowMean{K: 0}, 5},     // clamps to 1
		{WindowMedian{K: 3}, 4},   // median of 3,4,5
		{WindowMedian{K: 4}, 3.5}, // median of 2,3,4,5
		{WindowMedian{K: 0}, 5},
	}
	for _, c := range cases {
		if got := c.p.Predict(h); !almost(got, c.want) {
			t.Errorf("%s.Predict = %v, want %v", c.p.Name(), got, c.want)
		}
	}
}

func TestExpSmoothing(t *testing.T) {
	// alpha=1 -> last value; alpha->0 -> first value dominates.
	h := []float64{1, 2, 3}
	if got := (ExpSmoothing{Alpha: 1}).Predict(h); !almost(got, 3) {
		t.Errorf("alpha=1: %v", got)
	}
	got := (ExpSmoothing{Alpha: 0.5}).Predict(h)
	// s = 1; s = 0.5*2+0.5*1 = 1.5; s = 0.5*3+0.5*1.5 = 2.25
	if !almost(got, 2.25) {
		t.Errorf("alpha=0.5: %v", got)
	}
	// Out-of-range alpha clamps to 0.5.
	if got2 := (ExpSmoothing{Alpha: 7}).Predict(h); !almost(got2, got) {
		t.Errorf("clamped alpha: %v vs %v", got2, got)
	}
}

func TestPredictorsStayInRangeProperty(t *testing.T) {
	// Every predictor's forecast lies within [min, max] of the history.
	preds := []Predictor{LastValue{}, RunningMean{}, WindowMean{K: 3},
		WindowMedian{K: 3}, ExpSmoothing{Alpha: 0.3}}
	f := func(raw []float64) bool {
		h := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				h = append(h, math.Mod(math.Abs(v), 100))
			}
		}
		if len(h) == 0 {
			return true
		}
		lo, hi := h[0], h[0]
		for _, v := range h {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		for _, p := range preds {
			g := p.Predict(h)
			if g < lo-1e-9 || g > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdaptivePicksGoodPredictorOnConstantSeries(t *testing.T) {
	h := make([]float64, 50)
	for i := range h {
		h[i] = 0.4
	}
	if got := (Bank{}).Predict(h); !almost(got, 0.4) {
		t.Errorf("forecast = %v", got)
	}
}

func TestAdaptivePrefersLastValueOnTrend(t *testing.T) {
	// On a strong monotone trend, last-value beats the running mean.
	h := make([]float64, 100)
	for i := range h {
		h[i] = float64(i)
	}
	b := Bank{Members: []Predictor{LastValue{}, RunningMean{}}}
	if got := b.Predict(h); !almost(got, 99) {
		t.Errorf("forecast on trend = %v, want 99 (last value)", got)
	}
}

func TestAdaptivePrefersSmoothingOnOscillation(t *testing.T) {
	// On a +-1 oscillation around 0.5, the mean predictor (error ~1)
	// beats last-value (error ~2 each step).
	h := make([]float64, 100)
	for i := range h {
		if i%2 == 0 {
			h[i] = 1.0
		}
	}
	b := Bank{Members: []Predictor{LastValue{}, RunningMean{}}}
	if got := b.Predict(h); !almost(got, 0.5) {
		t.Errorf("forecast on oscillation = %v, want 0.5 (mean)", got)
	}
}

func TestAdaptiveAdaptsToRegimeChange(t *testing.T) {
	// Phase 1: a steep ramp (step +10), where last-value (error 10/step)
	// crushes the 4-wide window mean (error 25/step). Phase 2: the
	// series flips to an oscillation around a plateau (±5), where the
	// window mean (error 5/step) crushes last-value (error 10/step).
	//
	// Scored over the whole series, last-value keeps a ~150k
	// squared-error lead from phase 1 that 150 steps of phase 2 do not
	// earn back. The default error window forgets phase 1 and flips.
	h := make([]float64, 0, 450)
	for i := 0; i < 300; i++ {
		h = append(h, float64(i)*10)
	}
	members := []Predictor{LastValue{}, WindowMean{K: 4}}
	if got := (Bank{Members: members}).Predict(h); !almost(got, 2990) {
		t.Fatalf("forecast on ramp = %v, want 2990 (last value)", got)
	}
	for i := 0; i < 150; i++ {
		v := 3000.0 - 5
		if i%2 == 0 {
			v = 3000.0 + 5
		}
		h = append(h, v)
	}
	want := (WindowMean{K: 4}).Predict(h)
	if got := (Bank{Members: members}).Predict(h); !almost(got, want) {
		t.Errorf("forecast after regime change = %v, want %v (win-mean-4)", got, want)
	}
	// Scored over every point instead, last-value would still lead.
	if all, win := squaredError(LastValue{}, h, 1), squaredError(WindowMean{K: 4}, h, 1); all >= win {
		t.Errorf("all-time squared error: last value %v, win-mean-4 %v; the window no longer matters", all, win)
	}
}

// squaredError sums p's one-step-ahead squared errors over h[start:].
func squaredError(p Predictor, h []float64, start int) float64 {
	se := 0.0
	for j := start; j < len(h); j++ {
		e := p.Predict(h[:j]) - h[j]
		se += e * e
	}
	return se
}

// countingPredictor is last-value that counts its Predict calls.
type countingPredictor struct{ predicts *int }

func (countingPredictor) Name() string { return "counting" }
func (c countingPredictor) Predict(h []float64) float64 {
	*c.predicts++
	return h[len(h)-1]
}

func TestAdaptiveHistoryBounded(t *testing.T) {
	// The replay is bounded by the error window, not the history: each
	// member scores DefaultErrorWindow points and answers once, however
	// long the series it is handed.
	for _, n := range []int{100, 10000} {
		calls := 0
		b := Bank{Members: []Predictor{countingPredictor{predicts: &calls}}}
		b.Predict(make([]float64, n))
		if calls != DefaultErrorWindow+1 {
			t.Errorf("history %d: %d Predict calls, want %d", n, calls, DefaultErrorWindow+1)
		}
	}
}

func TestTrendExtrapolates(t *testing.T) {
	// The point of Trend: its forecast leaves the range of the history.
	// A perfect ramp extrapolates exactly one slope step beyond the last
	// sample.
	got := Trend{K: 4}.Predict([]float64{0.3, 0.45, 0.6, 0.75})
	if !almost(got, 0.9) {
		t.Errorf("ramp forecast = %v, want 0.9", got)
	}
	// Flat series: flat forecast.
	if got := (Trend{K: 4}).Predict([]float64{0.5, 0.5, 0.5}); !almost(got, 0.5) {
		t.Errorf("flat forecast = %v, want 0.5", got)
	}
	// Degenerate windows never panic: single point predicts itself.
	if got := (Trend{K: 4}).Predict([]float64{0.7}); !almost(got, 0.7) {
		t.Errorf("singleton forecast = %v, want 0.7", got)
	}
}

func TestBankPicksBestMember(t *testing.T) {
	// On a ramp the Bank must answer with last-value's forecast; on an
	// oscillation with the window mean's.
	ramp := make([]float64, 40)
	for i := range ramp {
		ramp[i] = float64(i) * 10
	}
	b := Bank{Members: []Predictor{LastValue{}, WindowMean{K: 4}}}
	if got := b.Predict(ramp); !almost(got, 390) {
		t.Errorf("bank on ramp = %v, want 390 (last value)", got)
	}
	osc := make([]float64, 40)
	for i := range osc {
		osc[i] = 5
		if i%2 == 0 {
			osc[i] = -5
		}
	}
	want := (WindowMean{K: 4}).Predict(osc)
	if got := b.Predict(osc); !almost(got, want) {
		t.Errorf("bank on oscillation = %v, want %v (win-mean)", got, want)
	}
	if got := b.Predict([]float64{0.7}); !almost(got, 0.7) {
		t.Errorf("bank on singleton = %v", got)
	}
}

func TestHistoryAttrRoundTrip(t *testing.T) {
	h := []float64{0.1, 0.2, 0.3}
	v := HistoryAttr(h)
	got, err := HistoryFromAttr(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h {
		if !almost(got[i], h[i]) {
			t.Errorf("round trip: %v", got)
		}
	}
	if _, err := HistoryFromAttr(attr.String("nope")); err == nil {
		t.Error("non-list accepted")
	}
	if _, err := HistoryFromAttr(attr.List(attr.String("x"))); err == nil {
		t.Error("non-numeric element accepted")
	}
	if _, err := HistoryFromAttr(attr.List()); err == nil {
		t.Error("empty list accepted")
	}
}

func TestInjectForecastIntoCollection(t *testing.T) {
	rt := orb.NewRuntime("uva")
	c := collection.New(rt, nil)
	InjectForecast(c, WindowMean{K: 3})

	busy := loid.LOID{Domain: "uva", Class: "Host", Instance: 1}
	idle := loid.LOID{Domain: "uva", Class: "Host", Instance: 2}
	c.Join(busy, []attr.Pair{{Name: "host_load_history",
		Value: HistoryAttr([]float64{0.9, 0.95, 0.85})}}, "")
	c.Join(idle, []attr.Pair{{Name: "host_load_history",
		Value: HistoryAttr([]float64{0.2, 0.1, 0.15})}}, "")

	recs, err := c.Query(`forecast_load() < 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Member != idle {
		t.Errorf("forecast query: %+v", recs)
	}

	// Custom attribute name argument (guarded with defined() since only
	// one record carries the attribute).
	c.Join(idle, []attr.Pair{{Name: "mem_history",
		Value: HistoryAttr([]float64{100, 110, 120})}}, "")
	recs, err = c.Query(`defined($mem_history) and forecast_load("mem_history") > 100`)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Member != idle {
		t.Errorf("custom-attr forecast: %+v", recs)
	}

	// A record without history fails that record's evaluation; the
	// Collection skips it and still returns the records with history
	// (one bad host must not hide the rest from the scheduler).
	c.Join(loid.LOID{Domain: "uva", Class: "Host", Instance: 3}, nil, "")
	recs, err = c.Query(`forecast_load() < 0.5`)
	if err != nil || len(recs) != 1 || recs[0].Member != idle {
		t.Errorf("history-less record not skipped: %v %v", recs, err)
	}
	// defined() still guards explicitly, reporting no error either way.
	recs, err = c.Query(`defined($host_load_history) and forecast_load() < 0.5`)
	if err != nil || len(recs) != 1 {
		t.Errorf("guarded query: %v %v", recs, err)
	}
}

func TestInjectForecastDefaultPredictor(t *testing.T) {
	rt := orb.NewRuntime("uva")
	c := collection.New(rt, nil)
	InjectForecast(c, nil)
	m := loid.LOID{Domain: "uva", Class: "Host", Instance: 1}
	c.Join(m, []attr.Pair{{Name: "host_load_history",
		Value: HistoryAttr([]float64{0.4, 0.4, 0.4})}}, "")
	// Range check rather than equality: the mean of three 0.4s differs
	// from 0.4 by a ulp.
	recs, err := c.Query(`forecast_load() > 0.39 and forecast_load() < 0.41`)
	if err != nil || len(recs) != 1 {
		t.Errorf("default predictor: %v %v", recs, err)
	}
}

func TestAdaptiveEmpty(t *testing.T) {
	// An empty history fails the record's forecast_load() evaluation
	// instead of reaching the Bank, whose Predict needs one sample.
	rt := orb.NewRuntime("uva")
	c := collection.New(rt, nil)
	InjectForecast(c, nil)
	c.Join(loid.LOID{Domain: "uva", Class: "Host", Instance: 1},
		[]attr.Pair{{Name: "host_load_history", Value: HistoryAttr(nil)}}, "")
	if recs, err := c.Query(`forecast_load() >= 0`); err != nil || len(recs) != 0 {
		t.Errorf("forecast over an empty history: %v %v", recs, err)
	}
}
