// Package difficulty models the difficulty-adjustment rules whose contrast
// motivates the paper's two revenue scenarios (Sec. II-C, IV-E2):
//
//   - Pre-Byzantium (and Bitcoin): difficulty targets the growth rate of the
//     main chain only. Under selfish mining, uncle and nephew rewards are
//     paid on top of a fixed regular-block rate, so total issuance inflates
//     (scenario 1).
//   - EIP100 (Byzantium): difficulty targets the regular-plus-uncle rate, so
//     extra uncles slow the chain and issuance stays bounded (scenario 2).
//
// The package provides an engine-driven retargeting Controller: the
// continuous-time simulator (internal/sim) feeds it every block as it
// settles — with its real timestamp and its actually referenced uncles,
// read off the block tree rather than approximated in closed form — and
// reads back the difficulty that paces the next exponential inter-arrival
// draw. PredictedRewardRate is the closed-form steady-state oracle the
// engine-integrated loop is cross-validated against.
package difficulty

import (
	"errors"
	"fmt"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/rewards"
)

// Rule selects which block production difficulty adjustment counts.
type Rule int

// The difficulty rules studied.
const (
	// Static applies no adjustment: difficulty stays at its initial
	// value, the "before the protocol reacts" baseline.
	Static Rule = iota

	// BitcoinStyle counts only main-chain (regular) blocks and retargets
	// on epoch boundaries, like Bitcoin's retarget and Ethereum before
	// EIP100.
	BitcoinStyle

	// EIP100 counts regular plus referenced uncle blocks and adjusts
	// every block, like Byzantium's per-block rule.
	EIP100
)

// Rules lists every rule in declaration order (the profitability grid's
// rule axis).
func Rules() []Rule { return []Rule{Static, BitcoinStyle, EIP100} }

// String implements fmt.Stringer.
func (r Rule) String() string {
	switch r {
	case Static:
		return "static"
	case BitcoinStyle:
		return "bitcoin-style"
	case EIP100:
		return "eip100"
	default:
		return fmt.Sprintf("rule(%d)", int(r))
	}
}

// ParseRule resolves a rule name ("static", "bitcoin", "bitcoin-style",
// "eip100").
func ParseRule(s string) (Rule, error) {
	switch s {
	case "static":
		return Static, nil
	case "bitcoin", "bitcoin-style":
		return BitcoinStyle, nil
	case "eip100":
		return EIP100, nil
	default:
		return 0, fmt.Errorf("%w: unknown rule %q", ErrBadController, s)
	}
}

// Validate rejects a rule outside Rules.
func (r Rule) Validate() error {
	if r != Static && r != BitcoinStyle && r != EIP100 {
		return fmt.Errorf("%w: unknown rule %d", ErrBadController, r)
	}
	return nil
}

// DefaultEpoch is the adjustment window in settled regular blocks: the
// retarget period of the Bitcoin-style rule and the smoothing gain (1/epoch
// per block) of the EIP100 rule. Small enough that quick 20k-block runs
// converge well before their steady-state window, large enough that a
// single epoch's observation has low relative noise.
const DefaultEpoch = 128

// InitialDifficulty is every controller's starting difficulty. With the
// population's hash power normalized to 1, block events arrive at rate
// 1/difficulty, so an all-honest chain starts at the controllers' target of
// one counted block per unit time.
const InitialDifficulty = 1.0

// maxRetargetFactor bounds a single Bitcoin-style retarget step, as
// Bitcoin's consensus rules do (factor 4).
const maxRetargetFactor = 4.0

// maxPerBlockFactor bounds a single EIP100 per-block step. The steady-state
// step is 1 +/- O(1/epoch); the clamp only matters while the controller is
// far from equilibrium.
const maxPerBlockFactor = 2.0

// ErrBadController is returned for invalid controller parameters.
var ErrBadController = errors.New("difficulty: invalid controller parameters")

// Params configures an engine-driven controller: only the counting rule
// varies. Every controller targets one counted block per unit time, adjusts
// over DefaultEpoch and starts at InitialDifficulty.
type Params struct {
	// Rule selects the counting rule. The zero value is Static.
	Rule Rule
}

// Controller is an engine-driven difficulty controller. The simulator calls
// ObserveBlock for every block the consensus floor settles, in chain order
// with the block's timestamp and its referenced-uncle count, and reads
// Difficulty to pace inter-arrival sampling. A Controller is single-run
// state; Reset reuses it across runs (the simulator Runner's reuse
// contract). It is not safe for concurrent use.
type Controller struct {
	rule Rule

	difficulty float64

	// lastTime is the timestamp of the last observed settled block (the
	// EIP100 spacing base); epochStart is the timestamp of the last
	// Bitcoin-style retarget.
	lastTime   float64
	epochStart float64

	// counted and blocks accumulate the current Bitcoin-style epoch:
	// counted is what the rule counts, blocks the epoch progress.
	counted int
	blocks  int

	retargets int
}

// NewController returns a controller for the given parameters.
func NewController(p Params) (*Controller, error) {
	if err := p.Rule.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{rule: p.Rule}
	c.Reset()
	return c, nil
}

// Reset restores the controller to its initial state, so one instance can
// be reused across independently seeded runs.
func (c *Controller) Reset() {
	c.difficulty = InitialDifficulty
	c.lastTime = 0
	c.epochStart = 0
	c.counted = 0
	c.blocks = 0
	c.retargets = 0
}

// Rule returns the controller's counting rule.
func (c *Controller) Rule() Rule { return c.rule }

// Difficulty returns the current difficulty.
func (c *Controller) Difficulty() float64 { return c.difficulty }

// Retargets returns the number of adjustments applied so far: epoch
// boundaries crossed for BitcoinStyle, blocks observed for EIP100, zero
// always for Static.
func (c *Controller) Retargets() int { return c.retargets }

// ObserveBlock feeds one newly settled regular block: its timestamp and the
// number of uncles it references (as counted on the settled tree). Blocks
// must be observed in chain order with non-decreasing timestamps.
func (c *Controller) ObserveBlock(timestamp float64, uncles int) {
	switch c.rule {
	case BitcoinStyle:
		// Epoch retarget on main-chain rate alone: uncles are invisible
		// to the pre-Byzantium rule.
		c.counted++
		c.blocks++
		if c.blocks < DefaultEpoch {
			break
		}
		if elapsed := timestamp - c.epochStart; elapsed > 0 {
			// The counted rate over the target rate of 1.
			factor := float64(c.counted) / elapsed
			c.difficulty *= clampFactor(factor, maxRetargetFactor)
			c.retargets++
		}
		c.counted = 0
		c.blocks = 0
		c.epochStart = timestamp

	case EIP100:
		// Per-block adjustment on the regular-plus-uncle rate. The
		// error term compares the blocks this step actually counted
		// (the regular block plus its referenced uncles) against what
		// the target rate of 1 expects over the observed spacing; gain
		// 1/epoch makes the equilibrium E[counted] = E[spacing], i.e. a
		// counted rate equal to the target, with convergence in
		// O(epoch) blocks and per-block noise O(1/epoch).
		counted := 1 + uncles
		spacing := timestamp - c.lastTime
		err := float64(counted) - spacing
		factor := 1 + err/DefaultEpoch
		c.difficulty *= clampFactor(factor, maxPerBlockFactor)
		c.retargets++
	}
	c.lastTime = timestamp
}

// clampFactor bounds a multiplicative step to [1/limit, limit].
func clampFactor(factor, limit float64) float64 {
	if factor > limit {
		return limit
	}
	if factor < 1/limit {
		return 1 / limit
	}
	return factor
}

// PredictedRewardRate returns the analytic steady-state total reward rate
// (all miners, rewards per unit time) for an adjusting difficulty rule at
// the given attack parameters: TotalAbsolute(scenario) at the controllers'
// target of one counted block per unit time, with scenario 1 for
// BitcoinStyle and scenario 2 for EIP100. It is the closed-form oracle the
// engine-integrated controller is cross-validated against; the Static rule
// has no scenario normalization (its issuance depends on the initial
// difficulty, not the target) and is rejected.
func PredictedRewardRate(rule Rule, alpha, gamma float64, schedule rewards.Schedule) (float64, error) {
	var scenario core.Scenario
	switch rule {
	case BitcoinStyle:
		scenario = core.Scenario1
	case EIP100:
		scenario = core.Scenario2
	default:
		return 0, fmt.Errorf("%w: no closed-form rate for rule %v", ErrBadController, rule)
	}
	m, err := core.New(core.Params{Alpha: alpha, Gamma: gamma, Schedule: schedule})
	if err != nil {
		return 0, err
	}
	return m.Revenue().TotalAbsolute(scenario), nil
}
