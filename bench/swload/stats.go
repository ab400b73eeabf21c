package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0-100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLadder are the percentiles a tail may be reported at, highest
// first, in per mille so that the sample arithmetic is exact.
var tailLadder = []int{999, 990, 950, 900, 750}

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// tailPercentile applies the reporting rule: the highest percentile of the
// ladder that leaves at least ten of n samples beyond it. ok is false when
// the sample supports nothing above the median.
func tailPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= tailBeyond*1000 {
			return float64(pm) / 10, true
		}
	}
	return 50, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, and 0 when b is 0: a layer that did no work has no share.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
