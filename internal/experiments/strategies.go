package experiments

import (
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/table"
)

// strategyAlphas is the hash-power sweep for the strategy comparison.
var strategyAlphas = []float64{0.15, 0.25, 0.35, 0.45}

// defaultStrategySpecs is the comparison run when the caller names no
// specs: Algorithm 1 against an honest control, early-committing variants,
// and the lead-stubborn point of the parametric stubborn family.
func defaultStrategySpecs() []sim.StrategySpec {
	return []sim.StrategySpec{
		sim.MustStrategySpec("honest"),
		sim.MustStrategySpec("algorithm1"),
		sim.MustStrategySpec("eager-publish:lead=2"),
		sim.MustStrategySpec("eager-publish:lead=4"),
		sim.MustStrategySpec("stubborn:lead=1"),
	}
}

// StrategiesRow is one alpha point of the strategy comparison: simulated
// scenario-1 pool revenue per strategy.
type StrategiesRow struct {
	Alpha float64

	// Revenue is indexed like StrategiesResult.Names.
	Revenue []float64
}

// StrategiesResult is the mining-strategy comparison — the paper's stated
// future work ("the design of new mining strategies"), evaluated on the
// simulator over registry specs.
type StrategiesResult struct {
	Names []string
	Rows  []StrategiesRow
}

// Strategies runs the comparison at gamma = 0.5, scheduling the full
// alpha × strategy × run grid on the experiment engine. The compared
// strategies are named by registry specs; with none given it runs the
// default panel (honest, algorithm1, eager-publish leads 2 and 4,
// stubborn:lead=1).
func Strategies(opts Options, specs ...sim.StrategySpec) (StrategiesResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return StrategiesResult{}, err
	}
	if len(specs) == 0 {
		specs = defaultStrategySpecs()
	}
	var out StrategiesResult
	for _, spec := range specs {
		out.Names = append(out.Names, spec.String())
	}

	// One grid point per (alpha, variant) pair, in row-major order. All
	// variants at one alpha share the point's seed family, so the
	// comparison is paired: every strategy faces the same event streams.
	jobs := make([]simJob, 0, len(strategyAlphas)*len(specs))
	for _, alpha := range strategyAlphas {
		for _, spec := range specs {
			jobs = append(jobs, simJob{
				alpha: alpha,
				specs: []sim.StrategySpec{spec},
				cfg:   sim.Config{Gamma: fig8Gamma},
			})
		}
	}
	series, err := runSimGrid(opts, jobs)
	if err != nil {
		return StrategiesResult{}, err
	}
	for i, alpha := range strategyAlphas {
		row := StrategiesRow{Alpha: alpha}
		for j := range specs {
			acc := series[i*len(specs)+j].PoolAbsolute(core.Scenario1)
			row.Revenue = append(row.Revenue, acc.Mean())
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Best returns the winning strategy name at the given row.
func (r StrategiesResult) Best(row int) string {
	best := 0
	for i, revenue := range r.Rows[row].Revenue {
		if revenue > r.Rows[row].Revenue[best] {
			best = i
		}
	}
	return r.Names[best]
}

// Table renders the comparison.
func (r StrategiesResult) Table() *table.Table {
	headers := append([]string{"alpha"}, r.Names...)
	t := table.New(
		"Strategy comparison — simulated pool revenue (gamma=0.5, scenario 1)",
		headers...,
	)
	for _, row := range r.Rows {
		_ = t.AddNumericRow(formatAlpha(row.Alpha), 4, row.Revenue...)
	}
	return t
}
