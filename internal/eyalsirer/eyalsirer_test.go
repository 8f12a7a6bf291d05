package eyalsirer

import (
	"errors"
	"math"
	"testing"
)

func TestThresholdKnownValues(t *testing.T) {
	tests := []struct {
		gamma float64
		want  float64
	}{
		{0, 1.0 / 3},
		{0.5, 0.25}, // the famous 25% result
		{1, 0},
	}
	for _, tt := range tests {
		got, err := Threshold(tt.gamma)
		if err != nil {
			t.Fatalf("Threshold(%v): %v", tt.gamma, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Threshold(%v) = %v, want %v", tt.gamma, got, tt.want)
		}
	}
}

func TestThresholdValidation(t *testing.T) {
	for _, gamma := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := Threshold(gamma); !errors.Is(err, ErrBadGamma) {
			t.Errorf("Threshold(%v): err = %v, want ErrBadGamma", gamma, err)
		}
	}
}

func TestRelativeRevenueAtThresholdEqualsAlpha(t *testing.T) {
	// At the threshold the pool's share equals its hash power.
	for _, gamma := range []float64{0, 0.25, 0.5, 0.75} {
		alpha, err := Threshold(gamma)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RelativeRevenue(alpha, gamma)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r-alpha) > 1e-9 {
			t.Errorf("gamma=%v: R(alpha*) = %v, want alpha* = %v", gamma, r, alpha)
		}
	}
}

func TestRelativeRevenueMonotoneAboveThreshold(t *testing.T) {
	// Above the threshold, more hash power means a disproportionately
	// larger share.
	prevGain := 0.0
	for _, alpha := range []float64{0.27, 0.33, 0.40, 0.45} {
		r, err := RelativeRevenue(alpha, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		gain := r - alpha
		if gain <= prevGain {
			t.Errorf("alpha=%v: gain %v did not grow (prev %v)", alpha, gain, prevGain)
		}
		prevGain = gain
	}
}

func TestRelativeRevenueValidation(t *testing.T) {
	if _, err := RelativeRevenue(0, 0.5); !errors.Is(err, ErrBadAlpha) {
		t.Errorf("err = %v, want ErrBadAlpha", err)
	}
	if _, err := RelativeRevenue(0.5, 0.5); !errors.Is(err, ErrBadAlpha) {
		t.Errorf("err = %v, want ErrBadAlpha", err)
	}
	if _, err := RelativeRevenue(0.3, -1); !errors.Is(err, ErrBadGamma) {
		t.Errorf("err = %v, want ErrBadGamma", err)
	}
}

func TestProfitable(t *testing.T) {
	tests := []struct {
		alpha, gamma float64
		want         bool
	}{
		{0.30, 0.5, true},  // above 0.25
		{0.20, 0.5, false}, // below 0.25
		{0.34, 0, true},    // above 1/3
		{0.32, 0, false},   // below 1/3
	}
	for _, tt := range tests {
		got, err := Profitable(tt.alpha, tt.gamma)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("Profitable(%v, %v) = %v, want %v", tt.alpha, tt.gamma, got, tt.want)
		}
	}
}

func TestNumericMatchesClosedForm(t *testing.T) {
	for _, alpha := range []float64{0.1, 0.25, 0.33, 0.45} {
		for _, gamma := range []float64{0, 0.5, 1} {
			closed, err := RelativeRevenue(alpha, gamma)
			if err != nil {
				t.Fatal(err)
			}
			numeric, err := RelativeRevenueNumeric(alpha, gamma, 120)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(closed-numeric) > 1e-6 {
				t.Errorf("a=%v g=%v: closed %v vs numeric %v",
					alpha, gamma, closed, numeric)
			}
		}
	}
}

func TestNumericDeterministic(t *testing.T) {
	// The revenue sums run in the chain's state order, so repeated solves
	// agree to the bit.
	first, err := RelativeRevenueNumeric(0.35, 0.5, 80)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got, _ := RelativeRevenueNumeric(0.35, 0.5, 80); got != first {
			t.Fatalf("call %d: %v, first call %v", i+2, got, first)
		}
	}
}

func TestNumericValidation(t *testing.T) {
	if _, err := RelativeRevenueNumeric(0.3, 0.5, 2); err == nil {
		t.Error("maxLead=2 should fail")
	}
	if _, err := RelativeRevenueNumeric(0.6, 0.5, 50); !errors.Is(err, ErrBadAlpha) {
		t.Errorf("err = %v, want ErrBadAlpha", err)
	}
}

func TestZeroGammaZeroRevenueAtSmallAlpha(t *testing.T) {
	// Far below the threshold, selfish mining strictly loses revenue.
	r, err := RelativeRevenue(0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r >= 0.1 {
		t.Errorf("R(0.1, 0) = %v, want < 0.1", r)
	}
	if r < 0 {
		t.Errorf("R(0.1, 0) = %v, want >= 0", r)
	}
}
