package experiments

import (
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/table"
)

// diffAblationAlpha is the attack size of the ablation (the paper's
// Sec. V centerpiece operating point).
const diffAblationAlpha = 0.35

// DiffAblationRow is one difficulty rule's steady state under selfish
// mining, measured by the engine-integrated controller: the simulator
// samples exponential inter-arrivals at the controller's difficulty and
// feeds back every settled block with its actually referenced uncles.
type DiffAblationRow struct {
	Rule difficulty.Rule

	// RegularRate and UncleRate are realized steady-state block rates per
	// unit time (means across runs).
	RegularRate, UncleRate float64

	// RewardRate is the steady-state total issuance rate (static + uncle
	// + nephew rewards per unit time) — the quantity a difficulty rule is
	// supposed to keep bounded — and RewardRateErr its standard error.
	RewardRate, RewardRateErr float64

	// Predicted is the closed-form steady-state reward rate
	// (difficulty.PredictedRewardRate), the oracle the engine loop is
	// cross-validated against.
	Predicted float64
}

// DiffAblationResult is the difficulty-rule ablation: it shows that the
// paper's two normalization scenarios emerge from the two difficulty rules
// closing the loop inside the engine.
type DiffAblationResult struct {
	Alpha, Gamma float64
	Rows         []DiffAblationRow
}

// DiffAblation runs the engine-integrated difficulty loop under both
// adjusting rules at alpha = 0.35, gamma = 0.5. Every (rule × run) work
// item is scheduled on the experiment engine; steady-state rates are read
// from each run's trailing-half window, where the controller has converged.
func DiffAblation(opts Options) (DiffAblationResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return DiffAblationResult{}, err
	}
	out := DiffAblationResult{Alpha: diffAblationAlpha, Gamma: fig8Gamma}
	rules := []difficulty.Rule{difficulty.BitcoinStyle, difficulty.EIP100}
	jobs := make([]simJob, len(rules))
	for i, rule := range rules {
		jobs[i] = simJob{alpha: out.Alpha, cfg: sim.Config{
			Gamma: out.Gamma,
			Time:  sim.TimeConfig{Enabled: true, Difficulty: difficulty.Params{Rule: rule}},
		}}
	}
	series, err := runSimGrid(opts, jobs)
	if err != nil {
		return DiffAblationResult{}, err
	}
	for i, rule := range rules {
		predicted, err := difficulty.PredictedRewardRate(rule, out.Alpha, out.Gamma, rewards.Ethereum())
		if err != nil {
			return DiffAblationResult{}, err
		}
		reward := series[i].Mean(func(r *sim.Result) float64 { return r.Steady.TotalRate() })
		out.Rows = append(out.Rows, DiffAblationRow{
			Rule:          rule,
			RegularRate:   series[i].Mean(func(r *sim.Result) float64 { return r.Steady.RegularRate() }).Mean(),
			UncleRate:     series[i].Mean(func(r *sim.Result) float64 { return r.Steady.UncleRate() }).Mean(),
			RewardRate:    reward.Mean(),
			RewardRateErr: reward.StdErr(),
			Predicted:     predicted,
		})
	}
	return out, nil
}

// Table renders the ablation.
func (r DiffAblationResult) Table() *table.Table {
	t := table.New(
		"Difficulty-rule ablation — engine-integrated controller steady state (alpha=0.35, gamma=0.5, target rate 1)",
		"rule", "regular rate", "uncle rate", "reward rate (sim)", "err", "reward rate (analytic)",
	)
	for _, row := range r.Rows {
		_ = t.AddNumericRow(row.Rule.String(), 4,
			row.RegularRate, row.UncleRate,
			row.RewardRate, row.RewardRateErr, row.Predicted)
	}
	return t
}
