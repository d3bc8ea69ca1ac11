package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// cell finds a row by first-column prefix and returns the named column.
func cell(t *testing.T, tb *Table, rowPrefix, col string) string {
	t.Helper()
	ci := -1
	for i, h := range tb.Header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("table %s has no column %q (header %v)", tb.ID, col, tb.Header)
	}
	for _, row := range tb.Rows {
		if strings.HasPrefix(row[0], rowPrefix) {
			if ci >= len(row) {
				t.Fatalf("table %s row %q too short", tb.ID, rowPrefix)
			}
			return row[ci]
		}
	}
	t.Fatalf("table %s has no row starting %q:\n%s", tb.ID, rowPrefix, tb)
	return ""
}

func pctVal(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a percentage: %q", s)
	}
	return v
}

func numVal(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return v
}

func TestTable1AllOpsMeasured(t *testing.T) {
	tb := Table1HostInterface(20)
	if len(tb.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (Table 1 ops + reactivate):\n%s", len(tb.Rows), tb)
	}
	for _, n := range tb.Notes {
		if strings.Contains(n, "failed") {
			t.Errorf("operation failed: %s", n)
		}
	}
}

func TestTable2SemanticsShape(t *testing.T) {
	tb := Table2ReservationTypes()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows:\n%s", tb)
	}
	// Space sharing conflicts; timesharing admits.
	if got := cell(t, tb, "one-shot space sharing", "2nd overlapping res."); got != "conflict" {
		t.Errorf("space sharing admission: %q", got)
	}
	if got := cell(t, tb, "reusable timesharing", "2nd overlapping res."); got != "admitted" {
		t.Errorf("timesharing admission: %q", got)
	}
	// One-shot consumed, reusable accepted.
	if got := cell(t, tb, "one-shot timesharing", "2nd startObject"); got != "rejected (consumed)" {
		t.Errorf("one-shot reuse: %q", got)
	}
	if got := cell(t, tb, "reusable timesharing", "2nd startObject"); got != "accepted" {
		t.Errorf("reusable reuse: %q", got)
	}
}

func TestFig1Tree(t *testing.T) {
	tb := Fig1CoreObjectTree(3, 1, 4)
	if got := cell(t, tb, "HostClass", "instances"); got != "3" {
		t.Errorf("HostClass instances = %s", got)
	}
	if got := cell(t, tb, "VaultClass", "instances"); got != "2" {
		t.Errorf("VaultClass instances = %s", got)
	}
	if got := cell(t, tb, "MyObjClass", "instances"); got != "4" {
		t.Errorf("MyObjClass instances = %s", got)
	}
}

func TestFig2AllLayeringsSucceed(t *testing.T) {
	tb := Fig2Layerings(5)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows:\n%s", tb)
	}
	for _, row := range tb.Rows {
		if row[3] != "100%" {
			t.Errorf("layering %s placed %s, want 100%%", row[0], row[3])
		}
	}
	// Scheme (a) interrogates hosts directly: more calls than (b).
	a := numVal(t, cell(t, tb, "(a)", "orb calls/placement"))
	b := numVal(t, cell(t, tb, "(b)", "orb calls/placement"))
	if a <= b {
		t.Errorf("calls (a)=%v should exceed (b)=%v on an 8-host fleet", a, b)
	}
}

func TestFig3TraceCoversPipeline(t *testing.T) {
	tb := Fig3PlacementTrace()
	text := tb.String()
	for _, step := range []string{"step 1:", "step 2:", "step 4:", "steps 5-6:",
		"steps 7-8:", "steps 9-10:", "step 12", "steps 12-13:"} {
		if !strings.Contains(text, step) {
			t.Errorf("trace missing %q:\n%s", step, text)
		}
	}
}

func TestFig4SizesAndIRIXMatches(t *testing.T) {
	tb := Fig4CollectionOps([]int{50, 500})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows:\n%s", tb)
	}
	// A fifth of records run IRIX 5.3.
	if got := cell(t, tb, "50", "matches"); got != "10" {
		t.Errorf("IRIX matches at 50 = %s", got)
	}
	if got := cell(t, tb, "500", "matches"); got != "100" {
		t.Errorf("IRIX matches at 500 = %s", got)
	}
}

// TestFig5BitmapWins asserts on what each method examines, not on how
// long this machine took: the schedule is built from a seeded rng, so
// the counts are fixed. The "selected" cell is a number only when both
// methods picked the same variant.
func TestFig5BitmapWins(t *testing.T) {
	tb := Fig5VariantSelection(64, []int{256})
	if sel := numVal(t, cell(t, tb, "64", "selected")); sel < 0 {
		t.Errorf("no variant covers the failed entry: %v\n%s", sel, tb)
	}
	words := numVal(t, cell(t, tb, "64", "words/select"))
	entries := numVal(t, cell(t, tb, "64", "entries/select"))
	if words >= entries {
		t.Errorf("bitmap walk examines %v words, list scan %v entries\n%s", words, entries, tb)
	}
}

func TestFig6Outcomes(t *testing.T) {
	tb := Fig6EnactorProtocol()
	if got := cell(t, tb, "3 mappings, all healthy", "result"); got != "success" {
		t.Errorf("healthy: %s", got)
	}
	if got := cell(t, tb, "1 broken host, variant patch", "result"); got != "success" {
		t.Errorf("variant patch: %s", got)
	}
	if got := cell(t, tb, "1 broken host, variant patch", "cancelled"); got != "0" {
		t.Errorf("variant patch cancelled = %s (thrash avoidance)", got)
	}
	if got := cell(t, tb, "1 broken host, no variants", "result"); got != "failure" {
		t.Errorf("no variants: %s", got)
	}
	if got := cell(t, tb, "1 broken host, no variants", "cancelled"); got != "1" {
		t.Errorf("rollback cancelled = %s", got)
	}
	if got := cell(t, tb, "empty request list", "reason"); got != "malformed schedule" {
		t.Errorf("malformed reason: %s", got)
	}
}

func TestFig7AllPlaced(t *testing.T) {
	tb := Fig7RandomScheduler([]int{4, 16})
	for _, row := range tb.Rows {
		if row[1] != "ok" {
			t.Errorf("count %s: %s", row[0], row[1])
		}
	}
}

func TestFig8IRSBeatsRandom(t *testing.T) {
	tb := Fig8IRS(15)
	irsLookups := numVal(t, cell(t, tb, "irs", "collection lookups/placement"))
	randLookups := numVal(t, cell(t, tb, "random", "collection lookups/placement"))
	if irsLookups > randLookups {
		t.Errorf("IRS lookups %v > random %v\n%s", irsLookups, randLookups, tb)
	}
	irsSucc := pctVal(t, cell(t, tb, "irs", "success"))
	randSucc := pctVal(t, cell(t, tb, "random", "success"))
	if irsSucc < randSucc {
		t.Errorf("IRS success %v%% < random %v%%\n%s", irsSucc, randSucc, tb)
	}
}

func TestE1LadderShape(t *testing.T) {
	tb := E1SchedulerLadder()
	// All placements succeed.
	for _, row := range tb.Rows {
		if row[2] != "ok" {
			t.Errorf("%s/%s failed", row[0], row[1])
		}
	}
	// Stencil has the lowest edge cut on the grid workload.
	var stencilCut, randomCut float64
	for _, row := range tb.Rows {
		if row[0] == "2-D stencil 8x8" {
			switch row[1] {
			case "stencil":
				stencilCut = numVal(t, row[5])
			case "random":
				randomCut = numVal(t, row[5])
			}
		}
	}
	if stencilCut >= randomCut {
		t.Errorf("stencil cut %v >= random cut %v\n%s", stencilCut, randomCut, tb)
	}
}

func TestE2ContentionShape(t *testing.T) {
	tb := E2ReservationContention([]int{8, 64})
	// At low offered load both types grant nearly everything; at high
	// offered load space sharing grants far less than timesharing.
	spaceHigh := pctVal(t, cell(t, tb, "reusable space sharing", "offered=64"))
	timeHigh := pctVal(t, cell(t, tb, "reusable timesharing", "offered=64"))
	if spaceHigh >= timeHigh {
		t.Errorf("space sharing %v%% >= timesharing %v%% at high load\n%s", spaceHigh, timeHigh, tb)
	}
	if timeHigh < 40 {
		t.Errorf("timesharing grant rate %v%% unexpectedly low\n%s", timeHigh, tb)
	}
}

func TestE3MigrationIntact(t *testing.T) {
	tb := E3MigrationPipeline([]int{1 << 10, 64 << 10})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows:\n%s", tb)
	}
	for _, row := range tb.Rows {
		if row[2] != "true" || row[3] != "true" || row[4] != "true" {
			t.Errorf("migration row %v", row)
		}
	}
}

func TestE3TriggerDelivery(t *testing.T) {
	tb := E3TriggerLatency(10)
	if got := cell(t, tb, "10", "delivered"); got != "10" {
		t.Errorf("delivered = %s\n%s", got, tb)
	}
}

func TestE4ForecastBeatsRaw(t *testing.T) {
	tb := E4FunctionInjection(60)
	raw := pctVal(t, cell(t, tb, "raw", "correct next-step pick"))
	fct := pctVal(t, cell(t, tb, "forecast_load()", "correct next-step pick"))
	if fct <= raw {
		t.Errorf("forecast %v%% <= raw %v%%\n%s", fct, raw, tb)
	}
}

func TestA1VariantsReduceWaste(t *testing.T) {
	tb := A1VariantVsRegenerate(20, 3)
	vs := pctVal(t, cell(t, tb, "variants", "success"))
	ns := pctVal(t, cell(t, tb, "no variants", "success"))
	if vs < ns {
		t.Errorf("variants success %v%% < regenerate %v%%\n%s", vs, ns, tb)
	}
	vc := numVal(t, cell(t, tb, "variants", "cancelled/plc"))
	nc := numVal(t, cell(t, tb, "no variants", "cancelled/plc"))
	if vc > nc {
		t.Errorf("variants cancel %v/plc > regenerate %v/plc (thrashing)\n%s", vc, nc, tb)
	}
	va := numVal(t, cell(t, tb, "variants", "sched attempts/plc"))
	na := numVal(t, cell(t, tb, "no variants", "sched attempts/plc"))
	if va > na {
		t.Errorf("variants used more schedule generations (%v > %v)\n%s", va, na, tb)
	}
}

func TestA2CoAllocationNoPartials(t *testing.T) {
	tb := A2CoAllocation(15, 6)
	if got := cell(t, tb, "reserve-all-then-start", "partial gangs"); got != "0" {
		t.Errorf("co-allocation left partial gangs: %s\n%s", got, tb)
	}
	wasted := numVal(t, cell(t, tb, "optimistic direct start", "objects started then killed"))
	partials := numVal(t, cell(t, tb, "optimistic direct start", "partial gangs"))
	if partials > 0 && wasted == 0 {
		t.Errorf("optimist partials without waste?\n%s", tb)
	}
}

func TestA3FreshBeatsStaleOnAccuracy(t *testing.T) {
	tb := A3SnapshotVsDirect(20, 5)
	stale := pctVal(t, cell(t, tb, "collection snapshot", "picked truly-least-loaded"))
	fresh := pctVal(t, cell(t, tb, "direct host queries", "picked truly-least-loaded"))
	if fresh < stale {
		t.Errorf("fresh %v%% < stale %v%%\n%s", fresh, stale, tb)
	}
	staleCalls := numVal(t, cell(t, tb, "collection snapshot", "calls/decision"))
	freshCalls := numVal(t, cell(t, tb, "direct host queries", "calls/decision"))
	if staleCalls >= freshCalls {
		t.Errorf("snapshot calls %v >= direct calls %v\n%s", staleCalls, freshCalls, tb)
	}
}

func TestA4PushPullRows(t *testing.T) {
	tb := A4PushVsPull(20)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows:\n%s", tb)
	}
	// Longer periods mean more staleness for the push model.
	var pushFast, pushSlow float64
	for _, row := range tb.Rows {
		if row[0] == "push" {
			if row[1] == "every 1 steps" {
				pushFast = numVal(t, row[3])
			} else {
				pushSlow = numVal(t, row[3])
			}
		}
	}
	if pushFast > pushSlow {
		t.Errorf("push staleness: fast %v > slow %v\n%s", pushFast, pushSlow, tb)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow(1, 2.5)
	tb.AddRow("xyz", "w")
	tb.Notes = append(tb.Notes, "a note")
	out := tb.String()
	for _, want := range []string{"== X: demo ==", "a    bb", "xyz", "2.5", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestE5CommAwareShape(t *testing.T) {
	tb := E5NetworkObjects()
	var randomW, stencilW, commW float64
	for _, row := range tb.Rows {
		if row[1] == "failed" {
			t.Fatalf("policy %s failed: %v", row[0], row)
		}
		switch row[0] {
		case "random":
			randomW = numVal(t, row[2])
		case "stencil":
			stencilW = numVal(t, row[2])
		case "comm-aware":
			commW = numVal(t, row[2])
		}
	}
	if commW > stencilW {
		t.Errorf("comm-aware weighted cut %v > stencil %v\n%s", commW, stencilW, tb)
	}
	if stencilW > randomW {
		t.Errorf("stencil weighted cut %v > random %v\n%s", stencilW, randomW, tb)
	}
}

func TestE6MonitoredBeatsStatic(t *testing.T) {
	tb := E6MonitoredRebalancing(30)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows:\n%s", tb)
	}
	staticFinal := numVal(t, cell(t, tb, "static", "final experienced load"))
	monFinal := numVal(t, cell(t, tb, "monitored", "final experienced load"))
	if monFinal >= staticFinal {
		t.Errorf("monitored final %v >= static %v\n%s", monFinal, staticFinal, tb)
	}
	if m := numVal(t, cell(t, tb, "monitored", "migrations")); m < 1 {
		t.Errorf("no migrations happened\n%s", tb)
	}
	if m := numVal(t, cell(t, tb, "static", "migrations")); m != 0 {
		t.Errorf("static run migrated\n%s", tb)
	}
}
