package experiments

import (
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/table"
)

// SecVIRow compares the profitability thresholds before and after the
// Sec. VI uncle-reward redesign (flat Ku = 4/8 within distance 6).
type SecVIRow struct {
	Scenario   core.Scenario
	Ethereum   float64 // threshold under Ku(.) = (8-l)/8
	Redesigned float64 // threshold under flat Ku = 4/8
}

// SecVIResult reproduces the Sec. VI threshold comparison at gamma = 0.5:
// 0.054 -> 0.163 (scenario 1) and 0.270 -> 0.356 (scenario 2).
type SecVIResult struct {
	Rows []SecVIRow
}

// SecVI computes the redesign comparison, solving the two scenarios'
// threshold searches on the experiment engine. The driver is analytic:
// only opts.Parallelism is used (simulation effort does not apply).
func SecVI(opts Options) (SecVIResult, error) {
	if err := opts.validate(); err != nil {
		return SecVIResult{}, err
	}
	flat, err := rewards.Constant(0.5, rewards.EthereumMaxUncleDepth)
	if err != nil {
		return SecVIResult{}, err
	}
	scenarios := []core.Scenario{core.Scenario1, core.Scenario2}
	rows, err := parallel.Map(opts.Parallelism, len(scenarios), func(i int) (SecVIRow, error) {
		scenario := scenarios[i]
		eth, err := core.Threshold(core.ThresholdParams{
			Gamma:    fig8Gamma,
			Scenario: scenario,
		})
		if err != nil {
			return SecVIRow{}, err
		}
		redesigned, err := core.Threshold(core.ThresholdParams{
			Gamma:    fig8Gamma,
			Schedule: flat,
			Scenario: scenario,
		})
		if err != nil {
			return SecVIRow{}, err
		}
		return SecVIRow{
			Scenario:   scenario,
			Ethereum:   eth,
			Redesigned: redesigned,
		}, nil
	})
	if err != nil {
		return SecVIResult{}, err
	}
	return SecVIResult{Rows: rows}, nil
}

// Table renders the comparison.
func (r SecVIResult) Table() *table.Table {
	t := table.New(
		"Sec. VI — Thresholds under the uncle-reward redesign (gamma=0.5)",
		"scenario", "Ku(.) threshold", "flat Ku=4/8 threshold",
	)
	for _, row := range r.Rows {
		_ = t.AddNumericRow(row.Scenario.String(), 3, row.Ethereum, row.Redesigned)
	}
	return t
}
