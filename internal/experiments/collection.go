package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"legion/internal/attr"
	"legion/internal/collection"
	"legion/internal/loid"
	"legion/internal/nws"
	"legion/internal/orb"
)

// Fig4CollectionOps exercises the Figure 4 Collection interface —
// JoinCollection, UpdateCollectionEntry, QueryCollection,
// LeaveCollection — and reports per-operation throughput at several
// collection sizes, including the paper's IRIX example query.
func Fig4CollectionOps(sizes []int) *Table {
	if len(sizes) == 0 {
		sizes = []int{100, 1000, 10000}
	}
	t := &Table{
		ID:     "F4",
		Title:  "Collection interface (Figure 4): per-op latency vs collection size",
		Header: []string{"records", "join", "update", "query (IRIX 5.x)", "matches", "query (load<0.5)", "leave"},
	}
	rng := rand.New(rand.NewSource(4))
	oses := []struct{ name, ver string }{
		{"IRIX", "5.3"}, {"IRIX", "6.5"}, {"Solaris", "2.6"}, {"Linux", "2.2"}, {"AIX", "4.3"},
	}
	for _, n := range sizes {
		rt := orb.NewRuntime("uva")
		c := collection.New(rt, nil)
		members := make([]loid.LOID, n)
		attrsFor := func(i int) []attr.Pair {
			o := oses[i%len(oses)]
			return []attr.Pair{
				{Name: "host_os_name", Value: attr.String(o.name)},
				{Name: "host_os_version", Value: attr.String(o.ver)},
				{Name: "host_load", Value: attr.Float(rng.Float64())},
				{Name: "host_arch", Value: attr.String("x86")},
			}
		}
		t0 := time.Now()
		for i := range members {
			members[i] = loid.LOID{Domain: "uva", Class: "Host", Instance: uint64(i + 1)}
			if err := c.Join(members[i], attrsFor(i), ""); err != nil {
				t.Notes = append(t.Notes, "join: "+err.Error())
			}
		}
		joinLat := time.Since(t0) / time.Duration(n)

		t0 = time.Now()
		for i := range members {
			c.Update(members[i], []attr.Pair{{Name: "host_load", Value: attr.Float(rng.Float64())}}, "")
		}
		updateLat := time.Since(t0) / time.Duration(n)

		// The paper's §3.2 example: all Hosts running IRIX 5.x.
		irix := `match("IRIX", $host_os_name) and match("5\..*", $host_os_version)`
		t0 = time.Now()
		recs, err := c.Query(irix)
		irixLat := time.Since(t0)
		if err != nil {
			t.Notes = append(t.Notes, "irix query: "+err.Error())
		}

		t0 = time.Now()
		if _, err := c.Query(`$host_load < 0.5`); err != nil {
			t.Notes = append(t.Notes, "load query: "+err.Error())
		}
		loadLat := time.Since(t0)

		t0 = time.Now()
		for i := range members {
			c.Leave(members[i], "")
		}
		leaveLat := time.Since(t0) / time.Duration(n)

		t.AddRow(n, joinLat, updateLat, irixLat, len(recs), loadLat, leaveLat)
	}
	t.Notes = append(t.Notes, "query latency grows linearly with collection size; regex compilation is cached")
	return t
}

// E4FunctionInjection compares placement decisions made on raw
// instantaneous load against NWS-style forecast queries injected into
// the Collection (§3.2's motivation).
//
// Host A carries a steady moderate load; host B flaps between nearly
// idle and saturated every step. The instantaneous reading is
// anti-correlated with B's next-step state, so the raw-load chooser is
// systematically wrong; the injected window-mean forecast sees B's true
// expected load and prefers the steady host.
func E4FunctionInjection(steps int) *Table {
	if steps < 4 {
		steps = 40
	}
	rt := orb.NewRuntime("uva")
	c := collection.New(rt, nil)
	nws.InjectForecast(c, nws.WindowMean{K: 6})

	a := loid.LOID{Domain: "uva", Class: "Host", Instance: 1}
	b := loid.LOID{Domain: "uva", Class: "Host", Instance: 2}
	c.Join(a, nil, "")
	c.Join(b, nil, "")

	histA, histB := []float64{}, []float64{}
	loadAt := func(step int, host int) float64 {
		if host == 0 {
			return 0.4 // steady
		}
		if step%2 == 0 {
			return 0.05 // flapping: looks idle...
		}
		return 0.95 // ...but saturates next step
	}

	rawWins, forecastWins := 0, 0
	rawRegret, forecastRegret := 0.0, 0.0
	decisions := 0
	for step := 0; step < steps; step++ {
		la, lb := loadAt(step, 0), loadAt(step, 1)
		histA = append(histA, la)
		histB = append(histB, lb)
		c.Update(a, []attr.Pair{
			{Name: "host_load", Value: attr.Float(la)},
			{Name: "host_load_history", Value: nws.HistoryAttr(histA)},
		}, "")
		c.Update(b, []attr.Pair{
			{Name: "host_load", Value: attr.Float(lb)},
			{Name: "host_load_history", Value: nws.HistoryAttr(histB)},
		}, "")
		if step < 6 {
			continue // warm the forecaster
		}
		// Next-step truth: where would the task actually run better?
		nextA, nextB := loadAt(step+1, 0), loadAt(step+1, 1)

		pickRaw := a
		if lb < la {
			pickRaw = b
		}
		// Forecast-based pick via an injected-function query.
		recs, err := c.Query(`defined($host_load_history) and forecast_load() < 0.5`)
		pickFct := pickRaw
		if err == nil && len(recs) > 0 {
			pickFct = recs[0].Member // lowest-LOID matching host
			best := 2.0
			for _, r := range recs {
				v, _ := attr.Lookup(r.Attrs, "host_load_history")
				h, herr := historyMean(v)
				if herr == nil && h < best {
					best = h
					pickFct = r.Member
				}
			}
		}
		decisions++
		rawNext, fctNext := nextA, nextA
		if pickRaw == b {
			rawNext = nextB
		}
		if pickFct == b {
			fctNext = nextB
		}
		better := nextA
		if nextB < nextA {
			better = nextB
		}
		rawRegret += rawNext - better
		forecastRegret += fctNext - better
		if rawNext == better {
			rawWins++
		}
		if fctNext == better {
			forecastWins++
		}
	}
	t := &Table{
		ID:     "E4",
		Title:  "Function injection (§3.2): raw-load vs NWS-forecast placement under oscillating load",
		Header: []string{"policy", "correct next-step pick", "mean load regret"},
	}
	t.AddRow("raw $host_load", pct(rawWins, decisions), fmt.Sprintf("%.3f", rawRegret/float64(decisions)))
	t.AddRow("forecast_load() injected", pct(forecastWins, decisions), fmt.Sprintf("%.3f", forecastRegret/float64(decisions)))
	t.Notes = append(t.Notes,
		"out-of-phase square-wave load: instantaneous readings invert by the time the object runs",
		"the injected forecaster computes new description information from $host_load_history at query time")
	return t
}

// historyMean averages a history attribute.
func historyMean(v attr.Value) (float64, error) {
	if v.Kind() != attr.KindList || v.Len() == 0 {
		return 0, fmt.Errorf("no history")
	}
	sum := 0.0
	for i := 0; i < v.Len(); i++ {
		f, _ := v.At(i).AsFloat()
		sum += f
	}
	return sum / float64(v.Len()), nil
}
