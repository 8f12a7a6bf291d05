package experiments

import (
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/table"
)

// Fig. 8 parameters: gamma = 0.5, flat Ku = 4/8, alpha swept to 0.45.
const (
	fig8Gamma      = 0.5
	fig8Ku         = 0.5
	fig8AlphaMax   = 0.45
	fig8AlphaStep  = 0.025
	fig8AlphaStart = 0.025
)

// Fig8Row is one alpha point of Fig. 8: analytic and simulated absolute
// revenues for the selfish pool and the honest miners, plus the honest-
// mining baseline (the diagonal U = alpha).
type Fig8Row struct {
	Alpha          float64
	HonestMining   float64 // baseline: following the protocol yields alpha
	PoolAnalytic   float64
	PoolSim        float64
	PoolSimErr     float64 // standard error across runs
	HonestAnalytic float64
	HonestSim      float64
	HonestSimErr   float64
}

// Fig8Result reproduces Fig. 8.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8 sweeps alpha and computes the revenue-rate curves of Fig. 8 from
// both the closed-form model and the simulator (scenario 1, gamma = 0.5,
// Ku = 4/8 Ks). The alpha × run simulation grid and the analytic solves
// are both scheduled on the experiment engine.
func Fig8(opts Options) (Fig8Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return Fig8Result{}, err
	}
	schedule, err := rewards.Constant(fig8Ku, rewards.NoDepthLimit)
	if err != nil {
		return Fig8Result{}, err
	}

	alphas := sweep(fig8AlphaStart, fig8AlphaMax, fig8AlphaStep)
	jobs := make([]simJob, len(alphas))
	for i, alpha := range alphas {
		jobs[i] = simJob{alpha: alpha, cfg: sim.Config{Gamma: fig8Gamma, Schedule: schedule}}
	}
	series, err := runSimGrid(opts, jobs)
	if err != nil {
		return Fig8Result{}, err
	}

	rows, err := parallel.Map(opts.Parallelism, len(alphas), func(i int) (Fig8Row, error) {
		alpha := alphas[i]
		m, err := core.New(core.Params{Alpha: alpha, Gamma: fig8Gamma, Schedule: schedule})
		if err != nil {
			return Fig8Row{}, err
		}
		rev := m.Revenue()
		pool := series[i].PoolAbsolute(core.Scenario1)
		honest := series[i].HonestAbsolute(core.Scenario1)
		return Fig8Row{
			Alpha:          alpha,
			HonestMining:   alpha,
			PoolAnalytic:   rev.PoolAbsolute(core.Scenario1),
			HonestAnalytic: rev.HonestAbsolute(core.Scenario1),
			PoolSim:        pool.Mean(),
			PoolSimErr:     pool.StdErr(),
			HonestSim:      honest.Mean(),
			HonestSimErr:   honest.StdErr(),
		}, nil
	})
	if err != nil {
		return Fig8Result{}, err
	}
	return Fig8Result{Rows: rows}, nil
}

// Threshold returns the smallest swept alpha whose pool revenue meets or
// exceeds alpha (the crossing Fig. 8 highlights at 0.163), or 0 if none.
func (r Fig8Result) Threshold() float64 {
	for _, row := range r.Rows {
		if row.PoolAnalytic >= row.Alpha {
			return row.Alpha
		}
	}
	return 0
}

// Table renders the figure's series as rows.
func (r Fig8Result) Table() *table.Table {
	t := table.New(
		"Fig. 8 — Average absolute revenue vs alpha (gamma=0.5, Ku=4/8 Ks, scenario 1)",
		"alpha", "honest-mining", "pool(analytic)", "pool(sim)", "pool(sim err)",
		"honest(analytic)", "honest(sim)", "honest(sim err)",
	)
	for _, row := range r.Rows {
		// The shared AddNumericRow helper keeps formatting uniform.
		_ = t.AddNumericRow(formatAlpha(row.Alpha), 4,
			row.HonestMining, row.PoolAnalytic, row.PoolSim, row.PoolSimErr,
			row.HonestAnalytic, row.HonestSim, row.HonestSimErr)
	}
	return t
}
