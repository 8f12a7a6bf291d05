package rng

import (
	"math"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d identical draws out of 1000", same)
	}
}

func TestNewZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		t.Fatal("seed 0 produced the forbidden all-zero state")
	}
	if a, b := r.Uint64(), r.Uint64(); a == b {
		t.Errorf("consecutive draws equal: %d", a)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("draw %d: Float64() = %v out of [0,1)", i, f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sumSq += f * f
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want 0.5 +/- 0.005", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("variance = %v, want 1/12 +/- 0.005", variance)
	}
}

func TestExpUnitMoments(t *testing.T) {
	// ExpUnit is the time axis's inter-arrival sampler: unit mean, unit
	// variance, never negative, always finite.
	r := New(43)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.ExpUnit()
		if x < 0 || math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("draw %d: ExpUnit() = %v", i, x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("mean = %v, want 1 +/- 0.02", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("variance = %v, want 1 +/- 0.05", variance)
	}
}

func TestExpUnitConsumesOneDraw(t *testing.T) {
	// ExpUnit must consume exactly one generator output per call, so the
	// simulator's time axis (which draws from its own stream) has a fixed,
	// predictable consumption pattern.
	a := New(47)
	b := New(47)
	for i := 0; i < 100; i++ {
		a.ExpUnit()
		b.Uint64()
	}
	if got, want := a.Uint64(), b.Uint64(); got != want {
		t.Fatalf("after 100 ExpUnit draws, stream diverged from 100 Uint64 draws: %d != %d", got, want)
	}
}

func TestExpUnitAllocationFree(t *testing.T) {
	r := New(53)
	if allocs := testing.AllocsPerRun(1000, func() { _ = r.ExpUnit() }); allocs != 0 {
		t.Errorf("ExpUnit allocates %v per draw, want 0", allocs)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(23)
	weights := []float64{1, 2, 0, 3, 4}
	const n = 200000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight index drawn %d times", counts[2])
	}
	total := 10.0
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d: frequency %v, want %v +/- 0.01", i, got, want)
		}
	}
}

func TestCategoricalNegativeWeightsIgnored(t *testing.T) {
	r := New(29)
	weights := []float64{-1, 1, -5}
	for i := 0; i < 1000; i++ {
		if got := r.Categorical(weights); got != 1 {
			t.Fatalf("Categorical drew index %d with weight %v", got, weights[got])
		}
	}
}

func TestCategoricalPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Categorical with zero total weight did not panic")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

// chiSquared returns the chi-squared statistic of observed counts against
// expected probabilities over n draws, skipping zero-probability bins, and
// the degrees of freedom used.
func chiSquared(counts []int, probs []float64, n int) (stat float64, df int) {
	for i, p := range probs {
		if p <= 0 {
			continue
		}
		expect := p * float64(n)
		d := float64(counts[i]) - expect
		stat += d * d / expect
		df++
	}
	return stat, df - 1
}

// chiSquaredCritical approximates the upper 0.001 quantile of the
// chi-squared distribution via the Wilson-Hilferty cube transform, ample
// for a deterministic-seed sanity band.
func chiSquaredCritical(df int) float64 {
	const z = 3.09 // standard normal upper 0.001 quantile
	d := float64(df)
	t := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * t * t * t
}

// TestAliasTableMatchesCategoricalOracle is the distribution property pin
// for the O(1) sampler: across skewed, uniform, and zero-weight populations
// the alias table's draws must follow the same distribution as the linear
// Categorical oracle. Both samplers are chi-squared against the exact
// probabilities, and zero-weight categories must never be drawn by either.
func TestAliasTableMatchesCategoricalOracle(t *testing.T) {
	const n = 200000
	uniform1000 := make([]float64, 1000)
	for i := range uniform1000 {
		uniform1000[i] = 1
	}
	cases := []struct {
		name    string
		weights []float64
	}{
		{"uniform", []float64{1, 1, 1, 1, 1, 1, 1, 1}},
		{"skewed", []float64{1000, 1, 5, 0.01, 200, 3}},
		{"zero-weights", []float64{0, 3, 0, 1, 2, 0}},
		{"negative-as-zero", []float64{-2, 3, -1, 1}},
		{"single", []float64{7}},
		{"uniform-1000", uniform1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var total float64
			for _, w := range tc.weights {
				if w > 0 {
					total += w
				}
			}
			probs := make([]float64, len(tc.weights))
			for i, w := range tc.weights {
				if w > 0 {
					probs[i] = w / total
				}
			}

			table := NewAliasTable(tc.weights)
			if table.Len() != len(tc.weights) {
				t.Fatalf("Len = %d, want %d", table.Len(), len(tc.weights))
			}
			r := New(4242)
			aliasCounts := make([]int, len(tc.weights))
			for i := 0; i < n; i++ {
				aliasCounts[table.Draw(r)]++
			}
			oracleCounts := make([]int, len(tc.weights))
			for i := 0; i < n; i++ {
				oracleCounts[r.Categorical(tc.weights)]++
			}

			for i, p := range probs {
				if p == 0 && aliasCounts[i] != 0 {
					t.Errorf("alias drew zero-weight index %d %d times", i, aliasCounts[i])
				}
				if p == 0 && oracleCounts[i] != 0 {
					t.Errorf("oracle drew zero-weight index %d %d times", i, oracleCounts[i])
				}
			}
			for name, counts := range map[string][]int{"alias": aliasCounts, "oracle": oracleCounts} {
				stat, df := chiSquared(counts, probs, n)
				if df == 0 {
					continue // single category: nothing to test
				}
				if crit := chiSquaredCritical(df); stat > crit {
					t.Errorf("%s chi-squared %.2f exceeds critical %.2f (df %d)", name, stat, crit, df)
				}
			}
		})
	}
}

func TestAliasTablePanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAliasTable with zero total weight did not panic")
		}
	}()
	NewAliasTable([]float64{0, -1, 0})
}

func TestReseedMatchesNew(t *testing.T) {
	r := New(99)
	r.Uint64() // advance away from the initial state
	r.Reseed(7)
	fresh := New(7)
	for i := 0; i < 16; i++ {
		if got, want := r.Uint64(), fresh.Uint64(); got != want {
			t.Fatalf("draw %d: Reseed stream %d, New stream %d", i, got, want)
		}
	}
}

func TestSplitmix64Avalanche(t *testing.T) {
	// The splitmix64 finalizer is a strong mixer: flipping a single input
	// bit should flip close to half of the 64 output bits on average.
	var totalFlips, samples int
	for seed := uint64(1); seed < 1000; seed++ {
		base := splitmix64(seed)
		for bit := 0; bit < 64; bit += 7 {
			flipped := splitmix64(seed ^ 1<<bit)
			totalFlips += popcount(base ^ flipped)
			samples++
		}
	}
	avg := float64(totalFlips) / float64(samples)
	if avg < 28 || avg > 36 {
		t.Errorf("avalanche average = %v flipped bits, want close to 32", avg)
	}
}

func TestSplitmix64Injective(t *testing.T) {
	// splitmix64 is a bijection on uint64; no collisions may occur.
	seen := make(map[uint64]uint64, 10000)
	for x := uint64(0); x < 10000; x++ {
		y := splitmix64(x)
		if prev, dup := seen[y]; dup {
			t.Fatalf("collision: splitmix64(%d) == splitmix64(%d) == %#x", x, prev, y)
		}
		seen[y] = x
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}

func BenchmarkExpUnit(b *testing.B) {
	b.ReportAllocs()
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.ExpUnit()
	}
}
