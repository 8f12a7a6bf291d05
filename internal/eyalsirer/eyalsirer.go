// Package eyalsirer implements the Bitcoin selfish-mining baseline of Eyal
// and Sirer ("Majority is not enough", CACM 2018), which the paper compares
// against in Fig. 10.
//
// Bitcoin has no uncle or nephew rewards, so the pool's long-run absolute
// revenue equals its relative share of static rewards. The package provides
// the closed-form revenue and threshold, a 1-D Markov-chain solution for
// cross-checking, and the reduction identity to the Ethereum model with a
// zero reward schedule (Remark 4 of the paper).
package eyalsirer

import (
	"errors"
	"fmt"
	"math"

	"github.com/ethselfish/ethselfish/internal/markov"
)

// Errors returned by the baseline.
var (
	// ErrBadAlpha is returned when alpha is outside (0, 0.5).
	ErrBadAlpha = errors.New("eyalsirer: alpha must lie in (0, 0.5)")

	// ErrBadGamma is returned when gamma is outside [0, 1].
	ErrBadGamma = errors.New("eyalsirer: gamma must lie in [0, 1]")
)

// RelativeRevenue returns the selfish pool's long-run share of block
// rewards under the Eyal-Sirer strategy:
//
//	R = (a(1-a)^2 (4a + g(1-2a)) - a^3) / (1 - a(1 + (2-a)a)).
func RelativeRevenue(alpha, gamma float64) (float64, error) {
	if err := validate(alpha, gamma); err != nil {
		return 0, err
	}
	a, g := alpha, gamma
	return (a*(1-a)*(1-a)*(4*a+g*(1-2*a)) - a*a*a) /
		(1 - a*(1+(2-a)*a)), nil
}

// Threshold returns the closed-form profitability threshold
// alpha* = (1-gamma)/(3-2*gamma): for alpha above it, selfish mining beats
// honest mining in Bitcoin.
func Threshold(gamma float64) (float64, error) {
	if math.IsNaN(gamma) || gamma < 0 || gamma > 1 {
		return 0, fmt.Errorf("gamma %v: %w", gamma, ErrBadGamma)
	}
	return (1 - gamma) / (3 - 2*gamma), nil
}

// Profitable reports whether selfish mining strictly beats honest mining.
func Profitable(alpha, gamma float64) (bool, error) {
	r, err := RelativeRevenue(alpha, gamma)
	if err != nil {
		return false, err
	}
	return r > alpha, nil
}

// chainState is a state of Eyal and Sirer's 1-D chain: the pool's lead,
// with the fork race state 0' represented separately.
type chainState struct {
	Lead int
	Fork bool // the 0' state: two public branches of equal length
}

// RelativeRevenueNumeric solves Eyal and Sirer's 1-D Markov chain (states
// 0, 0', 1, 2, ... truncated at maxLead) and computes the pool's share of
// static rewards by per-transition attribution. It cross-checks
// RelativeRevenue; truncation error decays like (alpha/(1-alpha))^maxLead.
func RelativeRevenueNumeric(alpha, gamma float64, maxLead int) (float64, error) {
	if err := validate(alpha, gamma); err != nil {
		return 0, err
	}
	if maxLead < 4 {
		return 0, fmt.Errorf("eyalsirer: maxLead %d too small", maxLead)
	}
	var (
		a = alpha
		b = 1 - alpha
		g = gamma
	)
	c := markov.New[chainState]()
	zero := chainState{}
	fork := chainState{Fork: true}
	one := chainState{Lead: 1}

	// From 0: pool withholds (lead 1) or honest wins a block outright.
	c.AddTransition(zero, one, a)
	c.AddTransition(zero, zero, b)
	// From 1: pool extends to 2, or honest levels the race -> 0'.
	c.AddTransition(one, chainState{Lead: 2}, a)
	c.AddTransition(one, fork, b)
	// From 0': anyone's next block resolves the race.
	c.AddTransition(fork, zero, 1)
	// From lead >= 2: pool extends; honest shrinks the lead (at lead 2
	// the pool publishes everything and the race resets).
	for lead := 2; lead <= maxLead; lead++ {
		s := chainState{Lead: lead}
		if lead < maxLead {
			c.AddTransition(s, chainState{Lead: lead + 1}, a)
		} else {
			c.AddTransition(s, s, a)
		}
		if lead == 2 {
			c.AddTransition(s, zero, b)
		} else {
			c.AddTransition(s, chainState{Lead: lead - 1}, b)
		}
	}

	pi, err := c.Stationary()
	if err != nil {
		return 0, fmt.Errorf("eyalsirer: %w", err)
	}

	// Per-transition reward attribution, mirroring the original paper:
	// each event's block eventually wins the main chain or not; the
	// probabilities are fully determined at creation. The sums run in the
	// chain's state order, so the result is deterministic.
	var pool, honest float64
	for _, s := range c.States() {
		p := pi[s]
		switch {
		case s == zero:
			// Honest block wins outright; the pool's first
			// private block wins iff the pool extends it, wins
			// the 0' race, or gamma-honest builds on it.
			honest += b * p
			pool += a * p * (a + a*b + b*b*g)
		case s == one:
			// Pool's second block always wins (lead 2 publishes
			// over any honest block). The honest block that forces
			// 0' wins only if (1-gamma)-honest extends it.
			pool += a * p
			honest += b * p * b * (1 - g)
		case s == fork:
			// Race resolution: winner takes the new block's
			// reward; the previously-counted branch heads were
			// settled at their own creation events.
			pool += a * p
			honest += b * p
		default:
			// Lead >= 2: every pool block eventually wins; every
			// honest block at lead 2 is orphaned, and at lead > 2
			// it is orphaned too (the pool's branch prevails).
			pool += a * p
		}
	}
	return pool / (pool + honest), nil
}

func validate(alpha, gamma float64) error {
	if math.IsNaN(alpha) || !(alpha > 0 && alpha < 0.5) {
		return fmt.Errorf("alpha %v: %w", alpha, ErrBadAlpha)
	}
	if math.IsNaN(gamma) || gamma < 0 || gamma > 1 {
		return fmt.Errorf("gamma %v: %w", gamma, ErrBadGamma)
	}
	return nil
}
