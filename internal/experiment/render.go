package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/rootcause"
)

// Table renders aligned text tables for the reports.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// Row appends one row; values are formatted with %v.
func (t *Table) Row(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// sparkline renders values as a compact unicode bar series, normalised to
// the series maximum.
func sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var max float64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(levels)-1))
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// fmtBytes renders a byte count human-readably.
func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

// seriesTable renders several downsampled series side by side, one row
// per bucket, values formatted with format.
func seriesTable(step time.Duration, format func(float64) string, names []string, series ...[]metrics.Point) string {
	t := NewTable(append([]string{"t(min)"}, names...)...)
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	for i := 0; i < maxLen; i++ {
		cells := make([]any, 0, len(series)+1)
		var label string
		for _, s := range series {
			if i < len(s) {
				label = fmt.Sprintf("%.0f", s[i].T.Sub(sparkEpoch(s)).Minutes())
				break
			}
		}
		cells = append(cells, label)
		for _, s := range series {
			if i < len(s) {
				cells = append(cells, format(s[i].V))
			} else {
				cells = append(cells, "")
			}
		}
		t.Row(cells...)
	}
	return t.String()
}

func sparkEpoch(s []metrics.Point) time.Time {
	if len(s) == 0 {
		return time.Time{}
	}
	return s[0].T
}

// quadrantMap renders the paper's Fig. 2/6 consumption × usage map as an
// ASCII grid: x grows with usage, y grows with consumption, so the most
// suspicious components land in the top-right.
func quadrantMap(r rootcause.Ranking, labels map[string]string) string {
	const width, height = 52, 14
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, e := range r.Entries {
		x := int(e.NormUsage * float64(width-1))
		y := int(e.NormConsumption * float64(height-1))
		row := height - 1 - y
		label := labels[e.Name]
		if label == "" {
			label = string(e.Name[len(e.Name)-1])
		}
		grid[row][x] = label[0]
	}
	var b strings.Builder
	b.WriteString("consumption\n")
	for i, row := range grid {
		marker := "|"
		if i == height/2 {
			marker = "+" // threshold line
		}
		fmt.Fprintf(&b, "  %s%s\n", marker, string(row))
	}
	fmt.Fprintf(&b, "  +%s usage\n", strings.Repeat("-", width))
	b.WriteString("  legend: ")
	for _, e := range r.Entries {
		label := labels[e.Name]
		if label == "" {
			label = string(e.Name[len(e.Name)-1])
		}
		fmt.Fprintf(&b, "%s=%s(%s) ", label, e.Name, e.Zone)
	}
	b.WriteByte('\n')
	return b.String()
}
