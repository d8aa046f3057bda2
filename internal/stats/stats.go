// Package stats provides the small statistical toolkit the paper's
// evaluation needs: the Pearson correlation coefficient behind Figure 6
// (correlation of the clustering coefficient with network performance)
// and the mean it is built on, plus simple text-table formatting for the
// experiment reports.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples, in [-1, 1]. It returns an error when the lengths differ, there
// are fewer than two pairs, or either variable is constant (the
// coefficient is undefined).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: Pearson needs paired samples, got %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: Pearson needs >= 2 pairs, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: Pearson undefined for constant input")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Table renders rows of cells as a fixed-width text table with a header —
// the output format of the benchmark harness and cmd/paperfigs.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells and long
// rows extend the column count.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	cell := func(row []string, c int) string {
		if c < len(row) {
			return row[c]
		}
		return ""
	}
	for c := 0; c < cols; c++ {
		w := len(cell(t.header, c))
		for _, r := range t.rows {
			if l := len(cell(r, c)); l > w {
				w = l
			}
		}
		widths[c] = w
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for c := 0; c < cols; c++ {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[c], cell(row, c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for c := 0; c < cols; c++ {
		if c > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[c]))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
