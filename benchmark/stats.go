package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample by linear interpolation between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the sample median (0 for an empty sample).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// mean returns the arithmetic mean (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// tailPermilles are the candidates for the reported tail, highest
// first, in tenths of a percent (so the sample count stays integer).
var tailPermilles = []int{999, 990, 950, 900, 750}

// tailPercentile applies the choosing-metrics rule: report the highest
// percentile that still has at least ten samples beyond it. With fewer
// than 40 samples not even p75 qualifies and the median is returned
// (pct 50).
func tailPercentile(n int) (pct float64) {
	for _, pm := range tailPermilles {
		if n*(1000-pm)/1000 >= 10 {
			return float64(pm) / 10
		}
	}
	return 50
}

// tail returns the value at tailPercentile(len(xs)) and that percentile.
func tail(xs []float64) (value, pct float64) {
	pct = tailPercentile(len(xs))
	return quantile(sortedCopy(xs), pct/100), pct
}

// relSpread is (max − min) ÷ median of the values: the run-to-run
// disagreement -repeat compares against a metric's bound.
func relSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	m := quantile(s, 0.5)
	if len(s) == 0 || m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}
