// Package experiments implements the reproduction harness: one function
// per paper artifact (tables, figures, and the §6 promised benchmark),
// each returning a printable Table. cmd/legion-bench runs them from the
// command line; this package's tests pin each (DESIGN.md §5); and
// EXPERIMENTS.md records their output.
//
// The paper contains no quantitative evaluation (its tables and figures
// are interfaces, data structures, and pseudocode), so each experiment
// here makes the corresponding artifact *executable* and measures the
// behaviour the prose claims: IRS does fewer Collection lookups than
// repeated Random; variant schedules avoid reservation thrashing;
// specialized schedulers beat generic ones; mechanism cost scales with
// policy capability.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"legion/internal/sim"
)

// Table is one experiment's result, printable as an aligned text table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row, converting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// newRand seeds a deterministic source.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// withMaxShared sets the admission bound on every spec.
func withMaxShared(specs []sim.HostSpec, n int) []sim.HostSpec {
	for i := range specs {
		specs[i].MaxShared = n
	}
	return specs
}

// meanDuration averages a sample set.
func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// pct formats a ratio as a percentage string.
func pct(num, den int) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(num)/float64(den))
}
