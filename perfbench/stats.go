package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tail is the reported "p99": the highest percentile, at most the 99th,
// that still has at least ten samples beyond it, so a single outlier
// cannot set it. It returns the value and the percentile used; with
// fewer than eleven samples no such percentile exists and the maximum
// (percentile 100) is returned.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(0.99*float64(n))) - 1
	if j := n - 11; j < i {
		i = j
	}
	if i < 0 {
		return sorted[n-1], 100
	}
	return sorted[i], 100 * float64(i+1) / float64(n)
}

// summary describes one metric's in-run samples for the report line.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/median, the run-to-run statistic the benchmark
	// is judged by, here applied to the samples inside one run.
	Spread float64 `json:"spread"`
	// Pct is the percentile a tail metric actually reports (see tail).
	Pct float64 `json:"pct,omitempty"`
}

// summarize computes quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so a
// run's own spread reads on the same scale as the cross-run check.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	out := summary{N: len(s), Median: quantile(s, 0.5)}
	if len(s) < 2 {
		out.Q1, out.Q3 = out.Median, out.Median
		return out
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.Q1, out.Q3 = q(1), q(3)
	if out.Median != 0 {
		out.Spread = (out.Q3 - out.Q1) / out.Median
	}
	return out
}

// withPct marks a summary as describing a tail percentile.
func withPct(s summary, pct float64) summary {
	s.Pct = pct
	return s
}
