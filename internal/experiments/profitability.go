package experiments

import (
	"fmt"
	"slices"

	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/table"
)

// The profitability experiment answers the time-domain question the
// block-count experiments cannot: does selfish mining actually *pay*, in
// rewards per second? Relative revenue above alpha only translates into
// absolute profit once difficulty adjustment compresses the time axis —
// Grunspan & Pérez-Marco (arXiv:1904.13330) make this the centerpiece of
// the Ethereum analysis and Ritz & Zugenmaier (arXiv:1805.08832) measure it
// by simulation across the adjustment boundary. The driver sweeps
// (alpha, gamma) under each difficulty regime with the engine-integrated
// controller and reports the pool's absolute reward rate in the window
// before any adjustment (difficulty still at its initial value) and in the
// converged steady state, against the honest-equivalent rate alpha (the
// controllers target one counted block per unit time) the pool would earn
// by following the protocol.

// profitabilityAlphas is the attack-size axis: below, around, and above the
// scenario-2 (EIP100) profitability threshold at gamma = 0.5 (~0.30).
var profitabilityAlphas = []float64{0.20, 0.25, 1.0 / 3, 0.40}

// profitabilityGammas is the tie-breaking axis.
var profitabilityGammas = []float64{0, 0.5, 1}

// ProfitabilityRow is one (rule, gamma, alpha) grid point.
type ProfitabilityRow struct {
	Rule         difficulty.Rule
	Alpha, Gamma float64

	// HonestEquivalent is alpha times the target rate of 1: the absolute
	// reward rate the pool's hash power would earn mining honestly once
	// difficulty holds the all-honest network at the target (with the
	// initial difficulty 1, also its pre-adjustment honest rate).
	HonestEquivalent float64

	// EarlyRate is the pool's mean absolute reward rate in the window
	// before the first adjustment (the run's first epoch of settled
	// blocks, mined at the initial difficulty); SteadyRate the mean over
	// the converged trailing half. Errs are standard errors across runs.
	EarlyRate, EarlyErr   float64
	SteadyRate, SteadyErr float64

	// FinalDifficulty is the mean converged difficulty — under selfish
	// mining the adjusting rules compress the time axis (difficulty
	// falls below 1) to hold their counted rate at the target.
	FinalDifficulty float64
}

// ProfitableEarly reports whether the pool out-earns honest mining before
// difficulty reacts (it should not, at any alpha: orphaned blocks repay at
// most uncle rewards).
func (r ProfitabilityRow) ProfitableEarly() bool { return r.EarlyRate > r.HonestEquivalent }

// ProfitableSteady reports whether the pool out-earns honest mining in the
// adjusted steady state.
func (r ProfitabilityRow) ProfitableSteady() bool { return r.SteadyRate > r.HonestEquivalent }

// Retargeted reports whether difficulty moved off the initial value 1
// (always false under the static regime).
func (r ProfitabilityRow) Retargeted() bool { return r.FinalDifficulty != 1 }

// ProfitabilityResult is the (rule × gamma × alpha) grid.
type ProfitabilityResult struct {
	Rows []ProfitabilityRow
}

// Profitability sweeps the profitability grid under the given difficulty
// rules (default: static, bitcoin-style, and EIP100; a rule listed twice is
// an error). Every
// (grid-point × run) work item is scheduled on the experiment engine; grid
// points at the same alpha share per-run seed families, so the event/race
// streams are identical across rules and the rows differ only through the
// time axis — a paired comparison of the difficulty regimes.
func Profitability(opts Options, rules ...difficulty.Rule) (ProfitabilityResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return ProfitabilityResult{}, err
	}
	if len(rules) == 0 {
		rules = difficulty.Rules()
	}
	for i, rule := range rules {
		if slices.Contains(rules[:i], rule) {
			return ProfitabilityResult{}, fmt.Errorf("experiments: difficulty rule %v listed twice", rule)
		}
	}

	type point struct {
		rule         difficulty.Rule
		alpha, gamma float64
	}
	var points []point
	var jobs []simJob
	for _, rule := range rules {
		for _, gamma := range profitabilityGammas {
			for _, alpha := range profitabilityAlphas {
				points = append(points, point{rule: rule, alpha: alpha, gamma: gamma})
				jobs = append(jobs, simJob{alpha: alpha, cfg: sim.Config{
					Gamma: gamma,
					Time:  sim.TimeConfig{Enabled: true, Difficulty: difficulty.Params{Rule: rule}},
				}})
			}
		}
	}
	series, err := runSimGrid(opts, jobs)
	if err != nil {
		return ProfitabilityResult{}, err
	}

	var out ProfitabilityResult
	for i, p := range points {
		early := series[i].EarlyRateOf(1)
		steady := series[i].SteadyRateOf(1)
		out.Rows = append(out.Rows, ProfitabilityRow{
			Rule:             p.rule,
			Alpha:            p.alpha,
			Gamma:            p.gamma,
			HonestEquivalent: p.alpha,
			EarlyRate:        early.Mean(),
			EarlyErr:         early.StdErr(),
			SteadyRate:       steady.Mean(),
			SteadyErr:        steady.StdErr(),
			FinalDifficulty:  series[i].Mean(func(r *sim.Result) float64 { return r.FinalDifficulty }).Mean(),
		})
	}
	return out, nil
}

// Row returns the grid point for (rule, gamma, alpha), matching alpha and
// gamma exactly.
func (r ProfitabilityResult) Row(rule difficulty.Rule, gamma, alpha float64) (ProfitabilityRow, bool) {
	for _, row := range r.Rows {
		if row.Rule == rule && row.Gamma == gamma && row.Alpha == alpha {
			return row, true
		}
	}
	return ProfitabilityRow{}, false
}

// Crossover returns the smallest swept alpha at which the rule's steady
// state out-earns honest mining at the given gamma, or 0 if none does.
func (r ProfitabilityResult) Crossover(rule difficulty.Rule, gamma float64) float64 {
	for _, alpha := range profitabilityAlphas {
		if row, ok := r.Row(rule, gamma, alpha); ok && row.ProfitableSteady() {
			return row.Alpha
		}
	}
	return 0
}

// Table renders the grid.
func (r ProfitabilityResult) Table() *table.Table {
	t := table.New(
		"Profitability — pool absolute reward rate per unit time vs honest-equivalent (Ethereum schedule, target rate 1)",
		"rule / gamma / alpha", "honest-eq", "early", "early err", "steady", "steady err",
		"final difficulty", "pays early", "pays steady",
	)
	for _, row := range r.Rows {
		label := fmt.Sprintf("%s g=%s a=%s", row.Rule, formatAlpha(row.Gamma), formatAlpha(row.Alpha))
		_ = t.AddRow(label,
			formatRate(row.HonestEquivalent), formatRate(row.EarlyRate), formatRate(row.EarlyErr),
			formatRate(row.SteadyRate), formatRate(row.SteadyErr), formatRate(row.FinalDifficulty),
			yesNo(row.ProfitableEarly()), yesNo(row.ProfitableSteady()))
	}
	return t
}

// formatRate renders one rate cell.
func formatRate(v float64) string { return fmt.Sprintf("%.4f", v) }

// yesNo renders a profitability flag.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
