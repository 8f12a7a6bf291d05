package experiments

import (
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/stats"
	"github.com/ethselfish/ethselfish/internal/table"
)

// table2Distances is the largest distance Table II tabulates.
const table2Distances = 6

// Table2Column is one alpha column of Table II: the distribution of honest
// uncles' reference distances (1..6, renormalized) with its expectation,
// from both the analysis and the simulator.
type Table2Column struct {
	Alpha    float64
	Analytic stats.Distribution
	Sim      stats.Distribution
}

// Table2Result reproduces Table II (gamma = 0.5, alpha in {0.3, 0.45}).
type Table2Result struct {
	Columns []Table2Column
}

// Table2 computes the honest uncle distance distributions, scheduling the
// alpha × run simulation grid on the experiment engine.
func Table2(opts Options) (Table2Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return Table2Result{}, err
	}
	alphas := []float64{0.3, 0.45}
	jobs := make([]simJob, len(alphas))
	for i, alpha := range alphas {
		jobs[i] = simJob{alpha: alpha, cfg: sim.Config{Gamma: fig8Gamma, Schedule: rewards.Ethereum()}}
	}
	series, err := runSimGrid(opts, jobs)
	if err != nil {
		return Table2Result{}, err
	}
	columns, err := parallel.Map(opts.Parallelism, len(alphas), func(i int) (Table2Column, error) {
		alpha := alphas[i]
		m, err := core.New(core.Params{Alpha: alpha, Gamma: fig8Gamma})
		if err != nil {
			return Table2Column{}, err
		}
		return Table2Column{
			Alpha:    alpha,
			Analytic: m.Revenue().HonestUncleDistribution(table2Distances),
			Sim:      series[i].HonestUncleDistribution(table2Distances),
		}, nil
	})
	if err != nil {
		return Table2Result{}, err
	}
	return Table2Result{Columns: columns}, nil
}

// Table renders Table II with analytic and simulated columns side by side.
func (r Table2Result) Table() *table.Table {
	headers := []string{"referencing distance"}
	for _, col := range r.Columns {
		headers = append(headers,
			"alpha="+formatAlpha(col.Alpha)+" (analytic)",
			"alpha="+formatAlpha(col.Alpha)+" (sim)",
		)
	}
	t := table.New(
		"Table II — Honest miners' uncle distance distribution (gamma=0.5)",
		headers...,
	)
	for d := 1; d <= table2Distances; d++ {
		var values []float64
		for _, col := range r.Columns {
			values = append(values, col.Analytic.P[d-1], col.Sim.P[d-1])
		}
		_ = t.AddNumericRow(formatDistance(d), 3, values...)
	}
	var expectations []float64
	for _, col := range r.Columns {
		expectations = append(expectations, col.Analytic.Mean(), col.Sim.Mean())
	}
	_ = t.AddNumericRow("Expectation", 2, expectations...)
	return t
}

func formatDistance(d int) string {
	return string(rune('0' + d))
}
