package main

import (
	"slices"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile of
// xs. It uses the "exclusive" method of Python's statistics.quantiles(xs,
// n=4) rather than internal/stats.Quantile's interpolation, so a spread
// printed here matches one computed from the same values in Python. A single
// sample is its own quartiles; xs must not be empty.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := slices.Clone(xs)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle of xs (the mean of the two middle samples when
// the count is even).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread returns the distance between the quartiles of xs as a share of
// their median: the run-to-run noise a bound is compared against.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// tailSamples is how many samples a tail percentile must leave above it.
const tailSamples = 10

// tail returns the highest percentile of xs that still has at least
// tailSamples samples beyond it: the (n-10)-th smallest sample, which sits at
// percentile 100*(n-10)/n. With fewer than tailSamples+1 samples no such
// percentile exists and ok is false.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < tailSamples+1 {
		return 0, 0, false
	}
	d := slices.Clone(xs)
	sort.Float64s(d)
	return d[n-tailSamples-1], 100 * float64(n-tailSamples) / float64(n), true
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// unionLength returns the length of the union of ivs clipped to [lo, hi]:
// time covered by at least one interval, counted once however many overlap.
func unionLength(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64
	reach = lo
	for _, iv := range clipped {
		s := max(iv.start, reach)
		if iv.end > s {
			total += iv.end - s
			reach = iv.end
		}
	}
	return total
}
