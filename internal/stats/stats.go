// Package stats provides the small numeric and rendering helpers shared by
// the experiment harness: geometric means, series resampling, and ASCII
// charts used to render the paper's figures in a terminal.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// GeoMean returns the geometric mean of xs; 0 if xs is empty or any value
// is non-positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Max returns the maximum of xs; -Inf if empty.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks; 0 if xs is empty. xs is not
// modified. The latency reporting of the concurrent query service uses it
// for p50/p95/p99.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Resample linearly resamples xs to n points (n >= 2). It is used to
// overlay APH series of different bucket counts on one chart.
func Resample(xs []float64, n int) []float64 {
	if len(xs) == 0 || n <= 0 {
		return nil
	}
	out := make([]float64, n)
	if len(xs) == 1 {
		for i := range out {
			out[i] = xs[0]
		}
		return out
	}
	for i := 0; i < n; i++ {
		pos := float64(i) * float64(len(xs)-1) / float64(max(n-1, 1))
		lo := int(pos)
		hi := lo + 1
		if hi >= len(xs) {
			out[i] = xs[len(xs)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = xs[lo]*(1-frac) + xs[hi]*frac
	}
	return out
}

// Series is a named line for ASCII charts.
type Series struct {
	Name   string
	Values []float64
}

// ASCIIChart renders the series as a fixed-size character plot, one marker
// character per series, with a y-axis scale. It approximates the gnuplot
// figures of the paper well enough to eyeball shapes and cross-overs.
func ASCIIChart(title string, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	markers := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 1
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		vals := Resample(s.Values, width)
		mk := markers[si%len(markers)]
		for c, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			r := int((hi - v) / (hi - lo) * float64(height-1))
			if r < 0 {
				r = 0
			}
			if r >= height {
				r = height - 1
			}
			grid[r][c] = mk
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for r, row := range grid {
		yval := hi - (hi-lo)*float64(r)/float64(height-1)
		fmt.Fprintf(&b, "%10.2f |%s|\n", yval, string(row))
	}
	fmt.Fprintf(&b, "%10s +%s+\n", "", strings.Repeat("-", width))
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", markers[si%len(markers)], s.Name))
	}
	fmt.Fprintf(&b, "%10s  %s\n", "", strings.Join(legend, "  "))
	return b.String()
}

// FormatTable renders rows as an aligned ASCII table. All rows should have
// the same number of cells; the first row is treated as the header.
func FormatTable(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for ri, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i := range row {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", widths[i]))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
