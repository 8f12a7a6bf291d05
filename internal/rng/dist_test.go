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

// geometric draws a Geometric(p) variate through GeometricLog, the
// fast-forward sampler, with the denominator computed per draw.
func geometric(r *Source, p float64) int { return r.GeometricLog(-math.Log1p(-p)) }

// TestGeometricDistribution chi-squares Geometric(p) draws against the exact
// pmf P(X = k) = (1-p)^k p, with the tail collapsed into one bin.
func TestGeometricDistribution(t *testing.T) {
	const n = 200000
	for _, p := range []float64{0.1, 1.0 / 3.0, 0.65, 0.9} {
		// Cut the support where the tail probability drops below ~40
		// expected draws so every bin is chi-squared-sized.
		tail := int(math.Ceil(math.Log(40.0/n) / math.Log(1-p)))
		probs := make([]float64, tail+1)
		q := p
		for k := 0; k < tail; k++ {
			probs[k] = q
			q *= 1 - p
		}
		probs[tail] = math.Pow(1-p, float64(tail)) // P(X >= tail)

		r := New(67)
		counts := make([]int, tail+1)
		for i := 0; i < n; i++ {
			k := geometric(r, p)
			if k < 0 {
				t.Fatalf("Geometric(%v) = %d < 0", p, k)
			}
			if k > tail {
				k = tail
			}
			counts[k]++
		}
		stat, df := chiSquared(counts, probs, n)
		if crit := chiSquaredCritical(df); stat > crit {
			t.Errorf("p=%v: chi-squared %.2f exceeds critical %.2f (df %d)", p, stat, crit, df)
		}
	}
}

// TestGeometricConsumesOneDraw pins the fixed consumption pattern: like
// ExpUnit, each GeometricLog call must advance the stream by exactly one
// generator output, so fast-forward mode's draws are stream-predictable.
func TestGeometricConsumesOneDraw(t *testing.T) {
	a := New(71)
	b := New(71)
	for i := 0; i < 100; i++ {
		geometric(a, 0.3)
		b.Uint64()
	}
	if got, want := a.Uint64(), b.Uint64(); got != want {
		t.Fatalf("after 100 Geometric draws, stream diverged from 100 Uint64 draws: %d != %d", got, want)
	}
}

func TestGeometricCertainSuccessIsZero(t *testing.T) {
	r := New(73)
	for i := 0; i < 1000; i++ {
		if k := geometric(r, 1); k != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", k)
		}
	}
}

func TestGeometricAllocationFree(t *testing.T) {
	r := New(79)
	if allocs := testing.AllocsPerRun(1000, func() { _ = geometric(r, 0.3) }); allocs != 0 {
		t.Errorf("Geometric allocates %v per draw, want 0", allocs)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(83)
	const n = 200000
	var sum, sumSq, sumCube float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		if math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("draw %d: Normal() = %v", i, x)
		}
		sum += x
		sumSq += x * x
		sumCube += x * x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	skew := sumCube / n
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v, want 0 +/- 0.01", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v, want 1 +/- 0.02", variance)
	}
	if math.Abs(skew) > 0.05 {
		t.Errorf("third moment = %v, want 0 +/- 0.05", skew)
	}
}

func TestNormalConsumesTwoDraws(t *testing.T) {
	a := New(89)
	b := New(89)
	for i := 0; i < 100; i++ {
		a.Normal()
		b.Uint64()
		b.Uint64()
	}
	if got, want := a.Uint64(), b.Uint64(); got != want {
		t.Fatalf("after 100 Normal draws, stream diverged from 200 Uint64 draws: %d != %d", got, want)
	}
}

// TestGammaIntMoments checks mean k and variance k across both sampling
// regimes (direct exponential sums and Marsaglia–Tsang rejection).
func TestGammaIntMoments(t *testing.T) {
	r := New(97)
	for _, k := range []int{1, 3, smallGammaShape, smallGammaShape + 1, 40, 400} {
		const n = 50000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := r.GammaInt(k)
			if x < 0 || math.IsInf(x, 0) || math.IsNaN(x) {
				t.Fatalf("GammaInt(%d) = %v", k, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		kf := float64(k)
		// StdErr of the mean is sqrt(k/n); 5 sigma band.
		if tol := 5 * math.Sqrt(kf/n); math.Abs(mean-kf) > tol {
			t.Errorf("GammaInt(%d): mean %v, want %v +/- %v", k, mean, kf, tol)
		}
		// Variance of the sample variance is ~(kurtosis-adjusted) 2k^2/n +
		// higher-order terms; a 10% relative band is comfortably > 5 sigma.
		if math.Abs(variance-kf) > 0.1*kf+0.1 {
			t.Errorf("GammaInt(%d): variance %v, want %v", k, variance, kf)
		}
	}
}

func TestGammaIntZeroShape(t *testing.T) {
	a := New(101)
	b := New(101)
	if x := a.GammaInt(0); x != 0 {
		t.Fatalf("GammaInt(0) = %v, want 0", x)
	}
	// And it must consume no generator output.
	if got, want := a.Uint64(), b.Uint64(); got != want {
		t.Fatal("GammaInt(0) consumed generator output")
	}
}

func TestGammaIntPanicsOnNegativeShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GammaInt(-1) did not panic")
		}
	}()
	New(1).GammaInt(-1)
}

// TestGammaIntMatchesExpSum is a two-sample KS test: above the small-shape
// cutoff GammaInt switches to Marsaglia–Tsang rejection, which must agree in
// distribution with the explicit sum of k unit exponentials it replaces.
func TestGammaIntMatchesExpSum(t *testing.T) {
	const (
		k = 40
		n = 20000
	)
	r1 := New(103)
	r2 := New(107)
	rejection := make([]float64, n)
	direct := make([]float64, n)
	for i := 0; i < n; i++ {
		rejection[i] = r1.GammaInt(k)
		var sum float64
		for j := 0; j < k; j++ {
			sum += r2.ExpUnit()
		}
		direct[i] = sum
	}
	sort.Float64s(rejection)
	sort.Float64s(direct)
	// Two-sample KS statistic via merge walk.
	var ks float64
	i, j := 0, 0
	for i < n && j < n {
		if rejection[i] <= direct[j] {
			i++
		} else {
			j++
		}
		if d := math.Abs(float64(i)-float64(j)) / n; d > ks {
			ks = d
		}
	}
	// 0.001-level critical value: c(a)*sqrt(2/n) with c(0.001) ~ 1.95.
	if crit := 1.95 * math.Sqrt(2.0/n); ks > crit {
		t.Errorf("two-sample KS %.5f exceeds critical %.5f", ks, crit)
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

func BenchmarkGeometric(b *testing.B) {
	b.ReportAllocs()
	r := New(1)
	negLogQ := -math.Log1p(-1.0 / 3.0)
	for i := 0; i < b.N; i++ {
		_ = r.GeometricLog(negLogQ)
	}
}

func BenchmarkGammaInt100(b *testing.B) {
	b.ReportAllocs()
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.GammaInt(100)
	}
}
