package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// machineColumns are the columns of E12, E14, E15 and E16 that measure
// the machine the run was on (wall time, heap). Every other cell and
// every note line of those tables is a property of the model: the same
// on every run, at any GOMAXPROCS, under -race. This list is the only
// place that knows which is which.
var machineColumns = []string{"wall", "MB", "B/host", "wall ms", "tasks/s"}

// modelCells renders a table without its machine columns, and without
// the padding Fprint leaves at the end of a line.
func modelCells(tb *Table) string {
	out := &Table{ID: tb.ID, Title: tb.Title, Notes: tb.Notes}
	var keep []int
	for i, h := range tb.Header {
		if !slices.Contains(machineColumns, h) {
			keep = append(keep, i)
			out.Header = append(out.Header, h)
		}
	}
	for _, row := range tb.Rows {
		cells := make([]string, len(keep))
		for j, i := range keep {
			cells[j] = row[i]
		}
		out.Rows = append(out.Rows, cells)
	}
	lines := strings.Split(out.String(), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}

// TestModelCellsGolden holds the virtual-time and count cells of the
// E-series at equality with testdata/model_cells.golden: E12 at the
// CI size (10k hosts, 50k placements through the real pipeline on the
// virtual clock; the committed EXPERIMENTS.md row is the 100k/1M run,
// `legion-bench -virtual`), E14's deadline hits, spend and ledgers,
// E15's shed timing and E16's reservation RPC counts. These are the
// repository's results; a change that moves one edits the golden file
// in the same diff and says why. Wall-clock cells are bench/'s.
func TestModelCellsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const e12Requests = 50_000
	e12 := E12VirtualScale(10_000, e12Requests)
	t.Logf("E12 wall %s, %s MB, %s B/host",
		cell(t, e12, "10000", "wall"), cell(t, e12, "10000", "MB"), cell(t, e12, "10000", "B/host"))

	// What must hold of E12 at any size, whatever the golden file says:
	// every request is accounted for, and the drain leaves nothing
	// (E12VirtualScale's conservation audit feeds the leaks column).
	count := func(col string) int { return int(numVal(t, cell(t, e12, "10000", col))) }
	ok, shed, failed := count("ok"), count("shed"), count("failed")
	if ok+shed+failed != e12Requests {
		t.Errorf("accounting hole: ok %d + shed %d + failed %d != offered %d", ok, shed, failed, e12Requests)
	}
	if ok == 0 {
		t.Error("zero successful placements")
	}
	if leaks := count("leaks"); leaks != 0 {
		t.Errorf("conservation audit: %d leaked reservations/instances", leaks)
	}

	got := modelCells(e12) +
		modelCells(E14Economy(400, 1_200)) +
		modelCells(E15PredictiveRebalancing(96)) +
		modelCells(E16ParamSpaceThroughput(300))
	want, err := os.ReadFile("testdata/model_cells.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("model cells moved:\n--- got\n%s--- want\n%s", got, want)
	}
}
