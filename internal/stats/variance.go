package stats

import (
	"math"
)

// This file is the variance-reduction toolkit layered over the plain
// Accumulator: a bivariate Welford accumulator for control-variate
// estimation against a statistic with a known mean, and the runs-to-target
// planning arithmetic shared by the precision harness.

// Paired computes running first and second moments of a bivariate stream
// (y, x) using Welford's algorithm: the estimand y alongside a control
// statistic x whose exact mean is known. The zero value is ready to use.
type Paired struct {
	n     int
	meanY float64
	meanX float64
	m2y   float64
	m2x   float64
	cxy   float64
}

// Add incorporates one paired observation.
func (p *Paired) Add(y, x float64) {
	p.n++
	n := float64(p.n)
	dy := y - p.meanY
	dx := x - p.meanX
	p.meanY += dy / n
	p.meanX += dx / n
	p.m2y += dy * (y - p.meanY)
	p.m2x += dx * (x - p.meanX)
	p.cxy += dx * (y - p.meanY)
}

// N returns the number of paired observations.
func (p Paired) N() int { return p.n }

// VarianceY returns the unbiased sample variance of the estimand, or 0 for
// fewer than two observations.
func (p Paired) VarianceY() float64 {
	if p.n < 2 {
		return 0
	}
	return p.m2y / float64(p.n-1)
}

// VarianceX returns the unbiased sample variance of the control statistic,
// or 0 for fewer than two observations.
func (p Paired) VarianceX() float64 {
	if p.n < 2 {
		return 0
	}
	return p.m2x / float64(p.n-1)
}

// Covariance returns the unbiased sample covariance of the pair, or 0 for
// fewer than two observations.
func (p Paired) Covariance() float64 {
	if p.n < 2 {
		return 0
	}
	return p.cxy / float64(p.n-1)
}

// Correlation returns the sample correlation coefficient, or 0 when either
// marginal is degenerate. The control variate's variance reduction is
// 1/(1-rho^2), so |rho| is the single number that decides whether a control
// is worth pairing with.
func (p Paired) Correlation() float64 {
	vy, vx := p.VarianceY(), p.VarianceX()
	if vy <= 0 || vx <= 0 {
		return 0
	}
	return p.Covariance() / math.Sqrt(vy*vx)
}

// Beta returns the estimated optimal control coefficient Cov(y,x)/Var(x),
// or 0 when the control is degenerate (the estimator then falls back to the
// plain mean).
func (p Paired) Beta() float64 {
	vx := p.VarianceX()
	if vx <= 0 {
		return 0
	}
	return p.Covariance() / vx
}

// ControlVariateMean returns the control-variate point estimate
// meanY - beta*(meanX - mu), where mu is the control's exact mean. The
// estimate stays unbiased up to the O(1/n) term from estimating beta on the
// same sample, which is far below simulation noise at the run counts the
// harness uses.
func (p Paired) ControlVariateMean(mu float64) float64 {
	return p.meanY - p.Beta()*(p.meanX-mu)
}

// ResidualVariance returns the per-observation variance of the
// control-variate estimator, (1 - rho^2) * VarY.
func (p Paired) ResidualVariance() float64 {
	rho := p.Correlation()
	resid := (1 - rho*rho) * p.VarianceY()
	if resid < 0 {
		return 0
	}
	return resid
}

// VarianceReductionFactor returns VarY divided by the residual variance —
// how many plain runs one control-variate run is worth. It returns 1 with a
// degenerate control and +Inf when the control absorbs the variance
// entirely.
func (p Paired) VarianceReductionFactor() float64 {
	vy := p.VarianceY()
	if vy <= 0 {
		return 1
	}
	resid := p.ResidualVariance()
	if resid <= 0 {
		return math.Inf(1)
	}
	return vy / resid
}

// ControlVariateInterval returns a confidence interval for the
// control-variate estimate at the given level. The t critical value uses
// n-2 degrees of freedom (one lost to the mean, one to beta). It returns
// ErrNoData with fewer than three observations.
func (p Paired) ControlVariateInterval(mu, level float64) (Interval, error) {
	if p.n < 3 {
		return Interval{}, ErrNoData
	}
	se := math.Sqrt(p.ResidualVariance() / float64(p.n))
	return Interval{
		Mean:   p.ControlVariateMean(mu),
		Radius: studentT(level, p.n-2) * se,
		Level:  level,
	}, nil
}

// RunsForRadius returns the number of runs needed for a level-confidence
// interval of the given half-width, assuming the per-run standard deviation
// sd: ceil((z*sd/radius)^2), floored at 2 so the answer always admits a
// variance estimate. A non-positive radius returns math.MaxInt (the target
// is unreachable); a non-positive sd returns 2.
func RunsForRadius(sd, level, radius float64) int {
	if sd <= 0 {
		return 2
	}
	if radius <= 0 {
		return math.MaxInt
	}
	z := normalQuantile(0.5 + level/2)
	n := math.Ceil((z * sd / radius) * (z * sd / radius))
	if n < 2 {
		return 2
	}
	if n >= math.MaxInt {
		return math.MaxInt
	}
	return int(n)
}
