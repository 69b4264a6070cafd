package main

import (
	"sort"

	"ityr/internal/metrics"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates for a timing's reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// tailPercentile returns the highest candidate percentile with at least
// ten of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000-1e-6 { // n·(1-p/100) ≥ 10, rounding-safe
			return p
		}
	}
	return 0
}

// dist summarizes one timing distribution: its median, its tail (see
// tailPercentile) and the sample count.
type dist struct {
	p50, tail, tailPct float64
	n                  int
}

func distOf(xs []float64) dist {
	d := dist{n: len(xs), p50: quantile(xs, 0.5), tailPct: tailPercentile(len(xs))}
	if d.tailPct > 0 {
		d.tail = quantile(xs, d.tailPct/100)
	}
	return d
}

// histQuantile estimates the q-quantile of a bucketed histogram,
// interpolating linearly inside the bucket that holds it. The overflow
// bucket is taken to end at the histogram's whole-run maximum.
func histQuantile(h metrics.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := 0.0, float64(h.Max)
			if i > 0 {
				lo = float64(h.Bounds[i-1])
			}
			if i < len(h.Bounds) {
				hi = float64(h.Bounds[i])
			}
			return lo + (rank-seen)/float64(c)*(hi-lo)
		}
		seen += float64(c)
	}
	return float64(h.Max)
}

func distOfHist(h metrics.HistogramSnapshot) dist {
	d := dist{n: int(h.Count), p50: histQuantile(h, 0.5), tailPct: tailPercentile(int(h.Count))}
	if d.tailPct > 0 {
		d.tail = histQuantile(h, d.tailPct/100)
	}
	return d
}
