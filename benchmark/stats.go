package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of an ascending
// slice by linear interpolation between closest ranks (numpy's default,
// "type 7"). An empty slice yields NaN.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of xs (NaN when empty).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// segmentMedian splits xs — in the order given, which callers keep
// chronological — into `segments` equal consecutive runs, takes the p-th
// percentile inside each, and returns the median of those together with
// the smallest and largest. One scheduler stall lands in one segment and
// therefore cannot move the reported value; lo..hi is the spread it did
// cause. With fewer samples than segments every sample is its own segment.
func segmentMedian(xs []float64, segments int, p float64) (mid, lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if segments > len(xs) {
		segments = len(xs)
	}
	per := make([]float64, segments)
	for s := range per {
		from, to := s*len(xs)/segments, (s+1)*len(xs)/segments
		per[s] = percentile(sortedCopy(xs[from:to]), p)
	}
	sort.Float64s(per)
	return percentile(per, 50), per[0], per[segments-1]
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method: position i·(n+1)/4, clamped to the data) — the benchmark driver
// computes its spreads with that function, so -compare must agree with
// it. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}
