package experiments

import (
	"errors"
	"math"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/eyalsirer"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/table"
)

// fig10GammaStep is the gamma sweep resolution of Fig. 10.
const fig10GammaStep = 0.05

// Fig10Row is one gamma point of Fig. 10: the profitability thresholds of
// Bitcoin (Eyal-Sirer) and of Ethereum under both difficulty scenarios.
// A NaN threshold means selfish mining is never profitable below 0.5.
type Fig10Row struct {
	Gamma     float64
	Bitcoin   float64
	Scenario1 float64
	Scenario2 float64
}

// Fig10Result reproduces Fig. 10.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 sweeps gamma and computes the three threshold curves of Fig. 10
// with Ethereum's Ku function, solving the gamma grid on the experiment
// engine. The driver is analytic: only opts.Parallelism is used
// (simulation effort does not apply).
func Fig10(opts Options) (Fig10Result, error) {
	if err := opts.validate(); err != nil {
		return Fig10Result{}, err
	}
	var gammas []float64
	for gamma := 0.0; gamma <= 1+1e-9; gamma += fig10GammaStep {
		if gamma > 1 {
			gamma = 1
		}
		gammas = append(gammas, gamma)
	}
	rows, err := parallel.Map(opts.Parallelism, len(gammas), func(i int) (Fig10Row, error) {
		gamma := gammas[i]
		bitcoin, err := eyalsirer.Threshold(gamma)
		if err != nil {
			return Fig10Row{}, err
		}
		row := Fig10Row{Gamma: gamma, Bitcoin: bitcoin}
		for _, scenario := range []core.Scenario{core.Scenario1, core.Scenario2} {
			threshold, err := core.Threshold(core.ThresholdParams{
				Gamma:    gamma,
				Scenario: scenario,
			})
			switch {
			case errors.Is(err, core.ErrNoThreshold):
				threshold = math.NaN()
			case err != nil:
				return Fig10Row{}, err
			}
			if scenario == core.Scenario1 {
				row.Scenario1 = threshold
			} else {
				row.Scenario2 = threshold
			}
		}
		return row, nil
	})
	if err != nil {
		return Fig10Result{}, err
	}
	return Fig10Result{Rows: rows}, nil
}

// Crossover returns the smallest swept gamma at which the scenario-2
// threshold exceeds Bitcoin's (the paper reports ~0.39), or NaN when they
// never cross.
func (r Fig10Result) Crossover() float64 {
	for _, row := range r.Rows {
		if !math.IsNaN(row.Scenario2) && row.Scenario2 > row.Bitcoin {
			return row.Gamma
		}
	}
	return math.NaN()
}

// Table renders the three threshold curves.
func (r Fig10Result) Table() *table.Table {
	t := table.New(
		"Fig. 10 — Profitability thresholds vs gamma (Ethereum Ku function)",
		"gamma", "bitcoin (Eyal-Sirer)", "ethereum scenario 1", "ethereum scenario 2",
	)
	for _, row := range r.Rows {
		_ = t.AddNumericRow(formatAlpha(row.Gamma), 4, row.Bitcoin, row.Scenario1, row.Scenario2)
	}
	return t
}
