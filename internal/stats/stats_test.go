package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if !almostEqual(a.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if !almostEqual(a.Variance(), 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", a.Variance(), 32.0/7)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	if _, err := a.ConfidenceInterval(0.95); !errors.Is(err, ErrNoData) {
		t.Errorf("ConfidenceInterval on empty data: err = %v, want ErrNoData", err)
	}
}

func TestAccumulatorSingleObservation(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Variance() != 0 {
		t.Errorf("variance of single observation = %v, want 0", a.Variance())
	}
	if _, err := a.ConfidenceInterval(0.95); !errors.Is(err, ErrNoData) {
		t.Errorf("ConfidenceInterval with one point: err = %v, want ErrNoData", err)
	}
}

func TestAccumulatorMerge(t *testing.T) {
	xs := []float64{1.5, -2, 3.25, 0, 8, -1, 4.5, 2}
	var whole Accumulator
	for _, x := range xs {
		whole.Add(x)
	}
	for split := 0; split <= len(xs); split++ {
		var left, right Accumulator
		for _, x := range xs[:split] {
			left.Add(x)
		}
		for _, x := range xs[split:] {
			right.Add(x)
		}
		left.Merge(&right)
		if left.N() != whole.N() {
			t.Fatalf("split %d: N = %d, want %d", split, left.N(), whole.N())
		}
		if !almostEqual(left.Mean(), whole.Mean(), 1e-12) {
			t.Errorf("split %d: Mean = %v, want %v", split, left.Mean(), whole.Mean())
		}
		if !almostEqual(left.Variance(), whole.Variance(), 1e-12) {
			t.Errorf("split %d: Variance = %v, want %v", split, left.Variance(), whole.Variance())
		}
		if left.Min() != whole.Min() || left.Max() != whole.Max() {
			t.Errorf("split %d: Min/Max mismatch", split)
		}
	}
}

func TestAccumulatorMergeProperty(t *testing.T) {
	// Inputs with magnitudes near MaxFloat64 overflow any variance
	// algorithm; restrict to a physically plausible range.
	ok := func(x float64) bool {
		return !math.IsNaN(x) && math.Abs(x) < 1e100
	}
	f := func(xs, ys []float64) bool {
		var merged, whole, b Accumulator
		for _, x := range xs {
			if !ok(x) {
				return true
			}
			merged.Add(x)
			whole.Add(x)
		}
		for _, y := range ys {
			if !ok(y) {
				return true
			}
			b.Add(y)
			whole.Add(y)
		}
		merged.Merge(&b)
		if merged.N() != whole.N() {
			return false
		}
		scale := math.Max(1, math.Abs(whole.Mean()))
		return almostEqual(merged.Mean(), whole.Mean(), 1e-9*scale)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfidenceIntervalCoverage(t *testing.T) {
	// For normal-ish data the 95% CI of the mean should contain the true
	// mean. Deterministic construction: symmetric values around 10.
	var a Accumulator
	for i := -50; i <= 50; i++ {
		a.Add(10 + float64(i)/10)
	}
	ci, err := a.ConfidenceInterval(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(10) {
		t.Errorf("interval %v does not contain the true mean 10", ci)
	}
	if ci.Radius <= 0 {
		t.Errorf("radius = %v, want > 0", ci.Radius)
	}
	if ci.Lo() >= ci.Hi() {
		t.Errorf("degenerate interval [%v, %v]", ci.Lo(), ci.Hi())
	}
}

func TestStudentTKnownValues(t *testing.T) {
	// Reference critical values from standard t tables.
	tests := []struct {
		level float64
		df    int
		want  float64
		tol   float64
	}{
		// One and two degrees of freedom take the closed forms, exact.
		{0.95, 1, 12.706, 0.001},
		{0.95, 2, 4.303, 0.001},
		{0.99, 1, 63.657, 0.001},
		{0.99, 2, 9.925, 0.001},
		{0.95, 9, 2.262, 0.01},
		{0.95, 30, 2.042, 0.01},
		{0.99, 9, 3.250, 0.03},
		{0.90, 20, 1.725, 0.01},
	}
	for _, tt := range tests {
		got := studentT(tt.level, tt.df)
		if !almostEqual(got, tt.want, tt.tol) {
			t.Errorf("studentT(%v, %d) = %v, want %v +/- %v",
				tt.level, tt.df, got, tt.want, tt.tol)
		}
	}
}

func TestStudentTLargeDFApproachesNormal(t *testing.T) {
	if got := studentT(0.95, 100000); !almostEqual(got, 1.95996, 1e-3) {
		t.Errorf("studentT(0.95, 1e5) = %v, want ~1.96", got)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	tests := []struct {
		p    float64
		want float64
	}{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.995, 2.575829},
		{0.84134, 0.99998}, // Phi(1) ~ 0.841345
	}
	for _, tt := range tests {
		got := normalQuantile(tt.p)
		if !almostEqual(got, tt.want, 1e-4) {
			t.Errorf("normalQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsInf(normalQuantile(0), -1) || !math.IsInf(normalQuantile(1), 1) {
		t.Error("normalQuantile should return infinities at 0 and 1")
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || got != 2.5 {
		t.Errorf("Mean = %v, %v; want 2.5, nil", got, err)
	}
	if _, err := Mean(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("Mean(nil): err = %v, want ErrNoData", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{1, 9},
		{0.5, 3.5},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrNoData) {
		t.Error("Quantile(nil) should return ErrNoData")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile(1.5) should fail")
	}
	// Input must not be mutated.
	if xs[0] != 3 || xs[5] != 9 {
		t.Error("Quantile mutated its input")
	}
}

func TestIntervalString(t *testing.T) {
	ci := Interval{Mean: 0.5, Radius: 0.01, Level: 0.95}
	if got := ci.String(); got != "0.5 +/- 0.01" {
		t.Errorf("String() = %q", got)
	}
}
