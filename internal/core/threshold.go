package core

import (
	"errors"
	"fmt"

	"github.com/ethselfish/ethselfish/internal/rewards"
)

// Threshold-search parameters. The search brackets the profitability
// crossing on a coarse grid and then bisects; gains below profitEpsilon are
// treated as break-even to keep the search robust to truncation noise.
const (
	thresholdGridStep = 0.005
	thresholdMinAlpha = 0.005
	thresholdMaxAlpha = 0.495
	thresholdBisects  = 40
	profitEpsilon     = 1e-12
)

// ErrNoThreshold is returned when selfish mining is unprofitable across the
// whole alpha range (no crossing below 0.5).
var ErrNoThreshold = errors.New("core: selfish mining never profitable for alpha < 0.5")

// ThresholdParams configures the profitability-threshold search.
type ThresholdParams struct {
	// Gamma is the network-capability parameter.
	Gamma float64

	// Schedule is the reward schedule (zero value: Ethereum).
	Schedule rewards.Schedule

	// Scenario selects the difficulty normalization (zero value:
	// Scenario1).
	Scenario Scenario
}

// Threshold returns alpha*, the smallest hash-power fraction at which the
// pool's absolute revenue U_s(alpha) is at least alpha (Sec. IV-E3). When
// selfish mining is profitable at arbitrarily small alpha (e.g. gamma = 1)
// it returns 0. It returns ErrNoThreshold when no alpha below 0.5 profits.
func Threshold(p ThresholdParams) (float64, error) {
	if p.Scenario == 0 {
		p.Scenario = Scenario1
	}
	gain := func(alpha float64) (float64, error) {
		m, err := New(Params{
			Alpha:    alpha,
			Gamma:    p.Gamma,
			Schedule: p.Schedule,
		})
		if err != nil {
			return 0, err
		}
		return m.Revenue().PoolAbsolute(p.Scenario) - alpha, nil
	}

	// Bracket the first sign change on a coarse grid. The gain is not
	// guaranteed monotone a priori, so scanning from the left finds the
	// smallest crossing.
	lo := thresholdMinAlpha
	gLo, err := gain(lo)
	if err != nil {
		return 0, err
	}
	if gLo >= -profitEpsilon {
		// Profitable immediately: threshold is effectively zero.
		return 0, nil
	}
	var (
		hi    float64
		found bool
	)
	for alpha := lo + thresholdGridStep; alpha <= thresholdMaxAlpha+1e-9; alpha += thresholdGridStep {
		gHi, err := gain(alpha)
		if err != nil {
			return 0, err
		}
		if gHi >= -profitEpsilon {
			hi = alpha
			found = true
			break
		}
		lo = alpha
	}
	if !found {
		return 0, fmt.Errorf("gamma=%v %v: %w", p.Gamma, p.Scenario, ErrNoThreshold)
	}

	for i := 0; i < thresholdBisects; i++ {
		mid := (lo + hi) / 2
		gMid, err := gain(mid)
		if err != nil {
			return 0, err
		}
		if gMid >= -profitEpsilon {
			hi = mid
		} else {
			lo = mid
		}
		if hi-lo < 1e-10 {
			break
		}
	}
	return hi, nil
}
