package rng

import (
	"math"
	"sort"
	"testing"
)

// invExpCDF is the inverse CDF of the unit-mean exponential, the oracle the
// ExpUnit sampler is pinned against.
func invExpCDF(u float64) float64 { return -math.Log(1 - u) }

// TestExpUnitMatchesInverseCDFOracle bins ExpUnit draws into equiprobable
// cells whose edges come from the inverse-CDF oracle and chi-squares the
// occupancy, then runs a one-sample Kolmogorov–Smirnov test against the
// exact CDF. Together these pin the full shape of the distribution, not
// just its first two moments.
func TestExpUnitMatchesInverseCDFOracle(t *testing.T) {
	const (
		n       = 200000
		buckets = 50
	)
	edges := make([]float64, buckets-1)
	for i := range edges {
		edges[i] = invExpCDF(float64(i+1) / buckets)
	}
	probs := make([]float64, buckets)
	for i := range probs {
		probs[i] = 1.0 / buckets
	}

	r := New(61)
	counts := make([]int, buckets)
	draws := make([]float64, n)
	for i := 0; i < n; i++ {
		x := r.ExpUnit()
		draws[i] = x
		b := sort.SearchFloat64s(edges, x)
		counts[b]++
	}

	stat, df := chiSquared(counts, probs, n)
	if crit := chiSquaredCritical(df); stat > crit {
		t.Errorf("chi-squared %.2f exceeds critical %.2f (df %d)", stat, crit, df)
	}

	// One-sample KS against F(x) = 1 - e^-x. The 0.001 critical value of
	// the Kolmogorov distribution is ~1.95/sqrt(n).
	sort.Float64s(draws)
	var ks float64
	for i, x := range draws {
		f := 1 - math.Exp(-x)
		lo := f - float64(i)/n
		hi := float64(i+1)/n - f
		if lo > ks {
			ks = lo
		}
		if hi > ks {
			ks = hi
		}
	}
	if crit := 1.95 / math.Sqrt(n); ks > crit {
		t.Errorf("KS statistic %.5f exceeds critical %.5f", ks, crit)
	}
}

// TestAntitheticExactComplement pins the antithetic transform exactly: the
// mirrored stream's Uint64 is the bitwise complement, and its Float64 is the
// reflection (1 - 2^-53) - u on the 53-bit lattice. No tolerance — paired
// estimators rely on this being exact.
func TestAntitheticExactComplement(t *testing.T) {
	a := New(109)
	b := New(109)
	b.SetAntithetic(true)
	const lattice = 1 - float64Unit // largest Float64 value: (2^53-1)/2^53
	for i := 0; i < 1000; i++ {
		if got, want := b.Uint64(), ^a.Uint64(); got != want {
			t.Fatalf("draw %d: antithetic Uint64 %d, want complement %d", i, got, want)
		}
		u, v := a.Float64(), b.Float64()
		if v != lattice-u {
			t.Fatalf("draw %d: antithetic Float64 %v, want %v", i, v, lattice-u)
		}
	}
}

func TestAntitheticSurvivesReseed(t *testing.T) {
	r := New(113)
	r.SetAntithetic(true)
	r.Reseed(127)
	plain := New(127)
	if got, want := r.Uint64(), ^plain.Uint64(); got != want {
		t.Fatal("antithetic flag lost across Reseed")
	}
	r.SetAntithetic(false)
	r.Reseed(127)
	plain.Reseed(127)
	if got, want := r.Uint64(), plain.Uint64(); got != want {
		t.Fatal("SetAntithetic(false) did not restore the plain stream")
	}
}
