package stats

import (
	"math"
	"testing"

	"github.com/ethselfish/ethselfish/internal/rng"
)

// TestPairedMatchesTwoPass pins the streaming moments against a naive
// two-pass computation on a correlated synthetic stream.
func TestPairedMatchesTwoPass(t *testing.T) {
	r := rng.New(41)
	const n = 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	var p Paired
	for i := range xs {
		x := r.Float64()
		y := 2*x + 0.3*r.Float64() // strongly correlated
		xs[i] = x
		ys[i] = y
		p.Add(y, x)
	}

	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	mx, my := mean(xs), mean(ys)
	var vx, vy, cxy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		vx += dx * dx
		vy += dy * dy
		cxy += dx * dy
	}
	vx /= float64(n - 1)
	vy /= float64(n - 1)
	cxy /= float64(n - 1)

	close := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("%s: streaming %v vs two-pass %v", name, got, want)
		}
	}
	// The control-variate mean reads both streaming means.
	close("cvMean", p.ControlVariateMean(0.5), my-(cxy/vx)*(mx-0.5))
	close("varX", p.VarianceX(), vx)
	close("varY", p.VarianceY(), vy)
	close("cov", p.Covariance(), cxy)
	close("beta", p.Beta(), cxy/vx)
	close("rho", p.Correlation(), cxy/math.Sqrt(vx*vy))
	if p.N() != n {
		t.Errorf("N = %d, want %d", p.N(), n)
	}
}

// TestControlVariateReducesVariance checks the estimator on the textbook
// setup: y = x + noise with E[x] known exactly. The control-variate mean
// must land closer to the truth than the plain mean on average, and the
// reported variance reduction factor must match 1/(1-rho^2).
func TestControlVariateReducesVariance(t *testing.T) {
	r := rng.New(42)
	const (
		mu    = 0.5 // exact mean of x ~ U(0,1)
		truth = 1.0 // E[y] = E[x] + 0.5
	)
	var p Paired
	var plain Accumulator
	for i := 0; i < 500; i++ {
		x := r.Float64()
		y := x + 0.5 + 0.05*(r.Float64()-0.5)
		p.Add(y, x)
		plain.Add(y)
	}

	rho := p.Correlation()
	wantVRF := 1 / (1 - rho*rho)
	if vrf := p.VarianceReductionFactor(); math.Abs(vrf-wantVRF) > 1e-9*wantVRF {
		t.Errorf("VRF %v, want 1/(1-rho^2) = %v", vrf, wantVRF)
	}
	if vrf := p.VarianceReductionFactor(); vrf < 10 {
		t.Errorf("VRF %v on a near-deterministic control; want large", vrf)
	}

	cv := p.ControlVariateMean(mu)
	plainErr := math.Abs(plain.Mean() - truth)
	cvErr := math.Abs(cv - truth)
	if cvErr > plainErr {
		t.Errorf("control variate error %v exceeds plain error %v", cvErr, plainErr)
	}

	ci, err := p.ControlVariateInterval(mu, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(truth) {
		t.Errorf("interval %v does not contain the truth %v", ci, truth)
	}
	plainSE := math.Sqrt(p.VarianceY() / float64(p.N()))
	if ci.Radius >= studentT(0.95, p.N()-1)*plainSE {
		t.Errorf("control-variate radius %v not below plain radius %v",
			ci.Radius, studentT(0.95, p.N()-1)*plainSE)
	}
}

// TestPairedDegenerateControl: a constant control must fall back to the
// plain mean with no variance reduction claimed.
func TestPairedDegenerateControl(t *testing.T) {
	r := rng.New(43)
	var p Paired
	var plain Accumulator
	for i := 0; i < 100; i++ {
		y := r.Float64()
		p.Add(y, 0.25)
		plain.Add(y)
	}
	if beta := p.Beta(); beta != 0 {
		t.Errorf("Beta = %v on a constant control, want 0", beta)
	}
	if cv := p.ControlVariateMean(0.25); math.Abs(cv-plain.Mean()) > 1e-12 {
		t.Errorf("ControlVariateMean %v, want plain mean %v", cv, plain.Mean())
	}
	if vrf := p.VarianceReductionFactor(); vrf != 1 {
		t.Errorf("VRF = %v on a constant control, want 1", vrf)
	}
	if rho := p.Correlation(); rho != 0 {
		t.Errorf("Correlation = %v on a constant control, want 0", rho)
	}
}

// TestPairedPerfectControl: y == x absorbs the variance entirely.
func TestPairedPerfectControl(t *testing.T) {
	r := rng.New(44)
	var p Paired
	for i := 0; i < 100; i++ {
		x := r.Float64()
		p.Add(x, x)
	}
	if vrf := p.VarianceReductionFactor(); !math.IsInf(vrf, 1) {
		t.Errorf("VRF = %v on a perfect control, want +Inf", vrf)
	}
	if cv := p.ControlVariateMean(0.5); math.Abs(cv-0.5) > 1e-12 {
		t.Errorf("ControlVariateMean %v, want the exact mean 0.5", cv)
	}
	if resid := p.ResidualVariance(); resid < 0 || resid > 1e-12 {
		t.Errorf("ResidualVariance = %v, want ~0", resid)
	}
}

// TestPairedEmptyAndSmall pins the guard rails at low counts.
func TestPairedEmptyAndSmall(t *testing.T) {
	var p Paired
	if p.VarianceY() != 0 || p.VarianceX() != 0 || p.Covariance() != 0 {
		t.Error("zero-value Paired reports nonzero moments")
	}
	if _, err := p.ControlVariateInterval(0, 0.95); err != ErrNoData {
		t.Errorf("interval on empty pair: err = %v, want ErrNoData", err)
	}
	p.Add(1, 2)
	p.Add(3, 4)
	if _, err := p.ControlVariateInterval(0, 0.95); err != ErrNoData {
		t.Errorf("interval with n=2: err = %v, want ErrNoData", err)
	}
	p.Add(5, 6)
	if _, err := p.ControlVariateInterval(0, 0.95); err != nil {
		t.Errorf("interval with n=3: err = %v", err)
	}
}

// TestRunsForRadius pins the planning arithmetic.
func TestRunsForRadius(t *testing.T) {
	// z(0.95) ~ 1.959964; sd=1, radius=0.1 -> ceil(384.15) = 385.
	if n := RunsForRadius(1, 0.95, 0.1); n != 385 {
		t.Errorf("RunsForRadius(1, 0.95, 0.1) = %d, want 385", n)
	}
	// Quadrupling the radius divides the runs by ~16.
	if n := RunsForRadius(1, 0.95, 0.4); n != 25 {
		t.Errorf("RunsForRadius(1, 0.95, 0.4) = %d, want 25", n)
	}
	if n := RunsForRadius(0, 0.95, 0.1); n != 2 {
		t.Errorf("zero sd: %d, want 2", n)
	}
	if n := RunsForRadius(1e-12, 0.95, 1e6); n != 2 {
		t.Errorf("tiny requirement: %d, want the floor 2", n)
	}
	if n := RunsForRadius(1, 0.95, 0); n != math.MaxInt {
		t.Errorf("zero radius: %d, want MaxInt", n)
	}
}
