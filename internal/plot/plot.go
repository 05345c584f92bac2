// Package plot renders experiment results as ASCII charts, so the paper's
// *figures* can be eyeballed directly in a terminal instead of read as raw
// tables. It integrates with internal/stats tables: any numeric column can
// be turned into a horizontal bar chart keyed by the table's row labels.
package plot

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/whisper-sim/whisper/internal/stats"
)

// blocks are the eighth-step fill characters for sub-cell resolution.
var blocks = []rune{' ', '▏', '▎', '▍', '▌', '▋', '▊', '▉', '█'}

// HBar renders a horizontal bar chart. Negative values draw to the left
// of a zero axis. width is the bar area in cells (default 40 when <= 0).
func HBar(title string, labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		panic("plot: labels and values must align")
	}
	if width <= 0 {
		width = 40
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	if len(values) == 0 {
		return b.String()
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	maxAbs := 0.0
	anyNeg := false
	for _, v := range values {
		if math.Abs(v) > maxAbs {
			maxAbs = math.Abs(v)
		}
		if v < 0 {
			anyNeg = true
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	barW := width
	if anyNeg {
		barW = width / 2
	}
	for i, v := range values {
		b.WriteString(fmt.Sprintf("%-*s ", labelW, labels[i]))
		if anyNeg {
			// Left half for negatives, right half for positives.
			neg := bar(math.Max(0, -v), maxAbs, barW)
			b.WriteString(strings.Repeat(" ", barW-runeLen(neg)))
			b.WriteString(reverse(neg))
			b.WriteString("│")
			if v > 0 {
				b.WriteString(bar(v, maxAbs, barW))
			}
		} else {
			b.WriteString(bar(v, maxAbs, barW))
		}
		b.WriteString(fmt.Sprintf(" %.2f\n", v))
	}
	return b.String()
}

// bar builds a left-to-right bar for v scaled by maxAbs over w cells.
func bar(v, maxAbs float64, w int) string {
	if v <= 0 {
		return ""
	}
	cells := v / maxAbs * float64(w)
	full := int(cells)
	frac := cells - float64(full)
	var sb strings.Builder
	sb.WriteString(strings.Repeat("█", full))
	if idx := int(frac * 8); idx > 0 {
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}

func runeLen(s string) int { return len([]rune(s)) }

func reverse(s string) string {
	rs := []rune(s)
	for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
		rs[i], rs[j] = rs[j], rs[i]
	}
	return string(rs)
}

// TableColumn renders column col (1-based data column; 0 is the row
// label) of a stats.Table as a bar chart. Non-numeric cells (and the
// trailing "Avg" row, if keepAvg is false) are skipped.
func TableColumn(t *stats.Table, col int, keepAvg bool, width int) (string, error) {
	if col < 1 || col >= len(t.Columns) {
		return "", fmt.Errorf("plot: column %d out of range (1..%d)", col, len(t.Columns)-1)
	}
	var labels []string
	var values []float64
	for _, row := range t.Rows {
		if !keepAvg && row[0] == "Avg" {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
		if err != nil {
			continue
		}
		labels = append(labels, row[0])
		values = append(values, v)
	}
	if len(values) == 0 {
		return "", fmt.Errorf("plot: column %q has no numeric cells", t.Columns[col])
	}
	title := fmt.Sprintf("%s — %s", t.Title, t.Columns[col])
	return HBar(title, labels, values, width), nil
}

// Render draws every numeric column of the table as a bar chart,
// separated by blank lines. Columns without numeric data are skipped.
func Render(t *stats.Table, width int) string {
	var parts []string
	for col := 1; col < len(t.Columns); col++ {
		s, err := TableColumn(t, col, false, width)
		if err == nil {
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, "\n")
}
