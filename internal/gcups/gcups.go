// Package gcups provides the paper's performance metrics — GCUPS, billions
// of DP cell updates per second — plus small helpers for building the
// throughput timelines of Figs. 7-8 and rendering aligned text tables for
// the experiment reports.
package gcups

import (
	"fmt"
	"strings"
	"time"
)

// GCUPS converts a cell count and a duration to billions of cell updates
// per second.
func GCUPS(cells int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(cells) / d.Seconds() / 1e9
}

// Seconds formats a duration as the paper's tables do: seconds with one
// decimal below 100 s, whole seconds (with thousands separator) above.
func Seconds(d time.Duration) string {
	s := d.Seconds()
	if s < 100 {
		return fmt.Sprintf("%.1f", s)
	}
	return addThousands(fmt.Sprintf("%.0f", s))
}

func addThousands(digits string) string {
	n := len(digits)
	if n <= 3 {
		return digits
	}
	var b strings.Builder
	lead := n % 3
	if lead > 0 {
		b.WriteString(digits[:lead])
		if n > lead {
			b.WriteByte(',')
		}
	}
	for i := lead; i < n; i += 3 {
		b.WriteString(digits[i : i+3])
		if i+3 < n {
			b.WriteByte(',')
		}
	}
	return b.String()
}

// Point is one (time, GCUPS) sample of a throughput series.
type Point struct {
	T     time.Duration
	GCUPS float64
}

// Series is a named throughput-over-time curve (one per core in Figs. 7-8).
type Series struct {
	Name   string
	Points []Point
}

// Bucketize converts raw (time, rate cells/s) samples into a fixed-step
// GCUPS series by averaging the rates that fall into each bucket. Empty
// buckets repeat 0 (an idle core).
func Bucketize(name string, times []time.Duration, rates []float64, step time.Duration, until time.Duration) Series {
	s := Series{Name: name}
	if step <= 0 || until <= 0 {
		return s
	}
	n := int(until/step) + 1
	sums := make([]float64, n)
	counts := make([]int, n)
	for i, t := range times {
		b := int(t / step)
		if b < 0 || b >= n {
			continue
		}
		sums[b] += rates[i]
		counts[b]++
	}
	for b := 0; b < n; b++ {
		v := 0.0
		if counts[b] > 0 {
			v = sums[b] / float64(counts[b]) / 1e9
		}
		s.Points = append(s.Points, Point{T: time.Duration(b) * step, GCUPS: v})
	}
	return s
}

// Mean returns the average GCUPS of the series' points.
func (s Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.GCUPS
	}
	return sum / float64(len(s.Points))
}

// Table renders aligned text tables for the experiment reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row; cells render with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = Seconds(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with column alignment and a title rule.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			// Left-align the first column (labels), right-align numbers.
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", width[i], c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range width {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(cols-1)))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-style CSV (quoted only when needed),
// for downstream plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRec := func(rec []string) {
		for i, c := range rec {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRec(t.Header)
	}
	for _, r := range t.Rows {
		writeRec(r)
	}
	return b.String()
}
