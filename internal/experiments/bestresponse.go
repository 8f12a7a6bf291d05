package experiments

import (
	"fmt"
	"math"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/table"
)

// BestResponse searches the parametric stubborn strategy space for the
// best response to an honest network at every (alpha, gamma) point — the
// paper's "design of new mining strategies" future work made concrete.
// Ritz & Zugenmaier show uncle rewards shift which stubborn variant is
// optimal; this driver measures that directly on the simulator, under the
// same flat-Ku schedule and alpha sweep as Fig. 8, so its algorithm1 column
// reproduces the figure's profitability threshold and its arg-max column
// extends it to the whole family.

// bestResponseGammas is the network-capability grid of the search.
var bestResponseGammas = []float64{0, 0.5, 1}

// stubbornSearchSpace enumerates the searched specs: Algorithm 1 (the
// all-axes-off point, under its own name so results read naturally) plus
// every stubborn combination of lead in {0,1}, fork in {0,1}, trail in
// {0,1,2} with at least one axis on.
func stubbornSearchSpace() []sim.StrategySpec {
	specs := []sim.StrategySpec{sim.MustStrategySpec("algorithm1")}
	for lead := 0; lead <= 1; lead++ {
		for fork := 0; fork <= 1; fork++ {
			for trail := 0; trail <= 2; trail++ {
				if lead == 0 && fork == 0 && trail == 0 {
					continue // identical to algorithm1
				}
				params := make(map[string]int)
				if lead != 0 {
					params["lead"] = lead
				}
				if fork != 0 {
					params["fork"] = fork
				}
				if trail != 0 {
					params["trail"] = trail
				}
				specs = append(specs, sim.StrategySpec{Name: "stubborn", Params: params})
			}
		}
	}
	return specs
}

// BestResponseRow is one (gamma, alpha) point of the search.
type BestResponseRow struct {
	Gamma, Alpha float64

	// Best names the arg-max spec; BestRevenue is its simulated
	// scenario-1 absolute revenue (honest mining yields exactly Alpha).
	Best        string
	BestRevenue float64
	BestStdErr  float64

	// Algorithm1Revenue is the paper strategy's revenue at the same
	// point, on the same event streams.
	Algorithm1Revenue float64
	Algorithm1StdErr  float64
}

// BeatsHonest reports whether the best response is profitable (the
// dominance region of deviating at all).
func (r BestResponseRow) BeatsHonest() bool { return r.BestRevenue > r.Alpha }

// BestResponseResult is the grid search outcome.
type BestResponseResult struct {
	// Specs lists the searched strategy space.
	Specs []string

	// Rows holds one entry per (gamma, alpha) point, gamma-major in grid
	// order.
	Rows []BestResponseRow
}

// BestResponse runs the grid search: every candidate spec, simulated as a
// lone pool at every (alpha, gamma) point of the Fig. 8 sweep × the gamma
// grid, under Fig. 8's flat Ku = 4/8 schedule, with the whole
// (point × candidate × run) grid scheduled on the experiment engine.
func BestResponse(opts Options) (BestResponseResult, error) {
	return bestResponse(opts, bestResponseGammas,
		sweep(fig8AlphaStart, fig8AlphaMax, fig8AlphaStep), stubbornSearchSpace())
}

// bestResponse is the grid-parameterized core of BestResponse; tests use it
// with reduced grids so the search's engine path stays affordable under the
// race detector.
func bestResponse(opts Options, gammas, alphas []float64, specs []sim.StrategySpec) (BestResponseResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return BestResponseResult{}, err
	}
	schedule, err := rewards.Constant(fig8Ku, rewards.NoDepthLimit)
	if err != nil {
		return BestResponseResult{}, err
	}

	jobs := make([]simJob, 0, len(gammas)*len(alphas)*len(specs))
	for _, gamma := range gammas {
		for _, alpha := range alphas {
			pop, err := mining.TwoAgent(alpha)
			if err != nil {
				return BestResponseResult{}, err
			}
			for _, spec := range specs {
				// Every candidate at one (gamma, alpha) point shares the
				// point's environment, hence (via jobkey.SeedBase) its
				// stream family: the arg-max is a paired comparison over
				// identical event streams.
				jobs = append(jobs, simJob{
					alpha: alpha,
					pop:   pop,
					specs: []sim.StrategySpec{spec},
					cfg:   sim.Config{Gamma: gamma, Schedule: schedule},
				})
			}
		}
	}
	series, err := runSimGrid(opts, jobs)
	if err != nil {
		return BestResponseResult{}, err
	}

	out := BestResponseResult{}
	for _, spec := range specs {
		out.Specs = append(out.Specs, spec.String())
	}
	for gi, gamma := range gammas {
		for ai, alpha := range alphas {
			base := (gi*len(alphas) + ai) * len(specs)
			row := BestResponseRow{Gamma: gamma, Alpha: alpha, Best: out.Specs[0]}
			for si := range specs {
				acc := series[base+si].PoolAbsolute(core.Scenario1)
				revenue := acc.Mean()
				if si == 0 {
					// specs[0] is algorithm1 by construction.
					row.Algorithm1Revenue = revenue
					row.Algorithm1StdErr = acc.StdErr()
				}
				if si == 0 || revenue > row.BestRevenue {
					row.Best = out.Specs[si]
					row.BestRevenue = revenue
					row.BestStdErr = acc.StdErr()
				}
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Threshold returns the smallest swept alpha at which Algorithm 1's
// simulated revenue meets or exceeds honest mining's alpha at the given
// gamma — the simulated counterpart of the Fig. 8 crossing (0.163 at
// gamma = 0.5, up to grid resolution and run noise) — or 0 if none.
func (r BestResponseResult) Threshold(gamma float64) float64 {
	for _, row := range r.Rows {
		if row.Gamma == gamma && row.Algorithm1Revenue >= row.Alpha {
			return row.Alpha
		}
	}
	return 0
}

// BestThreshold returns the smallest swept alpha at which the best response
// is profitable at the given gamma, or 0 if none. Where it undercuts
// Threshold, some stubborn variant opens the profitable region earlier than
// Algorithm 1.
func (r BestResponseResult) BestThreshold(gamma float64) float64 {
	for _, row := range r.Rows {
		if row.Gamma == gamma && row.BestRevenue >= row.Alpha {
			return row.Alpha
		}
	}
	return 0
}

// Dominance returns the rows where a stubborn variant strictly beats
// Algorithm 1 by more than twice the combined standard error — the region
// where deviating from the paper's strategy pays.
func (r BestResponseResult) Dominance() []BestResponseRow {
	var out []BestResponseRow
	for _, row := range r.Rows {
		margin := 2 * (row.BestStdErr + row.Algorithm1StdErr)
		if row.Best != "algorithm1" && row.BestRevenue > row.Algorithm1Revenue+margin {
			out = append(out, row)
		}
	}
	return out
}

// At returns the row of the given grid point, or false when the point was
// not swept. Alpha is matched with a tolerance absorbing the grid's float
// representation error.
func (r BestResponseResult) At(gamma, alpha float64) (BestResponseRow, bool) {
	for _, row := range r.Rows {
		if row.Gamma == gamma && math.Abs(row.Alpha-alpha) < 1e-9 {
			return row, true
		}
	}
	return BestResponseRow{}, false
}

// Table renders the search: one row per (gamma, alpha) point.
func (r BestResponseResult) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("Best response — arg-max over the stubborn family (Ku=%g, %d candidates, scenario 1)",
			fig8Ku, len(r.Specs)),
		"gamma/alpha", "algorithm1", "best", "best spec", "profitable",
	)
	for _, row := range r.Rows {
		label := fmt.Sprintf("%.2f / %s", row.Gamma, formatAlpha(row.Alpha))
		profitable := "-"
		if row.BeatsHonest() {
			profitable = "yes"
		}
		_ = t.AddRow(label,
			fmt.Sprintf("%.4f", row.Algorithm1Revenue),
			fmt.Sprintf("%.4f", row.BestRevenue),
			row.Best, profitable)
	}
	return t
}
