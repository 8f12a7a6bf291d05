package experiments

import (
	"fmt"
	"math"
	"strconv"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/jobkey"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/stats"
	"github.com/ethselfish/ethselfish/internal/table"
)

// This file is the runs-to-target-precision study: instead of a fixed run
// count per grid point, each cell keeps simulating until its confidence
// interval for the pool's absolute revenue is narrower than a target
// half-width, under one of three estimators. The cells share a Fig. 8
// setting (two-agent population, gamma = 0.5, flat Ku = 4/8), where the
// closed-form chain model supplies both the ground truth to report against
// and the exact control-variate mean.
//
//   - Plain: the sample mean over independent runs.
//   - Control variate: pairs each run's revenue with its selfish event
//     share, whose exact mean is alpha (every event is an independent
//     draw of the mining race), and regresses the noise out.
//   - Antithetic: pairs each seed with its mirrored stream (every uniform
//     reflected across the lattice midpoint) and averages within pairs;
//     the negative within-pair correlation cancels first-order noise.
//
// Every cell is deterministic given (Options.Seed, alpha, estimator):
// seeds derive exactly as the fixed-run grid derives them, so a precision
// study is reproducible run for run.

// Estimator selects the statistical estimator of a precision cell.
type Estimator int

const (
	// EstimatorPlain is the sample mean over independent runs.
	EstimatorPlain Estimator = iota

	// EstimatorControlVariate regresses run revenue against the selfish
	// event share, whose exact mean is known (alpha).
	EstimatorControlVariate

	// EstimatorAntithetic averages within seed-mirrored run pairs.
	EstimatorAntithetic
)

// String returns the estimator's canonical name.
func (e Estimator) String() string {
	switch e {
	case EstimatorPlain:
		return "plain"
	case EstimatorControlVariate:
		return "control-variate"
	case EstimatorAntithetic:
		return "antithetic"
	}
	return "estimator(" + strconv.Itoa(int(e)) + ")"
}

// ParseEstimator resolves a canonical estimator name.
func ParseEstimator(name string) (Estimator, error) {
	switch name {
	case "plain":
		return EstimatorPlain, nil
	case "control-variate", "cv":
		return EstimatorControlVariate, nil
	case "antithetic":
		return EstimatorAntithetic, nil
	}
	return 0, fmt.Errorf("%w: unknown estimator %q", ErrBadOptions, name)
}

// Precision-study defaults.
const (
	// DefaultTargetRadius is the default confidence half-width target for
	// the pool's absolute revenue.
	DefaultTargetRadius = 0.002

	// DefaultPrecisionLevel is the default confidence level.
	DefaultPrecisionLevel = 0.95

	// DefaultPrecisionMaxRuns bounds a cell that cannot reach its target.
	DefaultPrecisionMaxRuns = 256

	// DefaultPrecisionBatch is the number of runs simulated between
	// interval checks (kept off the check boundary so small-sample t
	// intervals never gate on one or two runs).
	DefaultPrecisionBatch = 8
)

// defaultPrecisionAlphas spans the paper's interesting range: below the
// profitability threshold, mid-range, and the classic 1/3.
func defaultPrecisionAlphas() []float64 { return []float64{0.15, 0.25, 1.0 / 3.0} }

// allEstimators lists every estimator, in report order.
func allEstimators() []Estimator {
	return []Estimator{EstimatorPlain, EstimatorControlVariate, EstimatorAntithetic}
}

// PrecisionConfig shapes a precision study. The zero value gets defaults
// for every field.
type PrecisionConfig struct {
	// Alphas are the pool hash powers to study (nil: 0.15, 0.25, 1/3).
	Alphas []float64

	// Estimators are the estimators to compare (nil: all three).
	Estimators []Estimator

	// TargetRadius is the confidence half-width each cell runs toward
	// (zero: DefaultTargetRadius).
	TargetRadius float64

	// Level is the confidence level (zero: DefaultPrecisionLevel).
	Level float64

	// MaxRuns caps a cell's simulation runs (zero:
	// DefaultPrecisionMaxRuns). Antithetic cells count both halves of a
	// pair.
	MaxRuns int

	// BatchRuns is the number of runs between interval checks (zero:
	// DefaultPrecisionBatch).
	BatchRuns int

	// FastForward runs every simulation with the analytic fast-forward
	// enabled, compounding the two accelerations.
	FastForward bool
}

func (pc PrecisionConfig) withDefaults() PrecisionConfig {
	if pc.Alphas == nil {
		pc.Alphas = defaultPrecisionAlphas()
	}
	if pc.Estimators == nil {
		pc.Estimators = allEstimators()
	}
	if pc.TargetRadius == 0 {
		pc.TargetRadius = DefaultTargetRadius
	}
	if pc.Level == 0 {
		pc.Level = DefaultPrecisionLevel
	}
	if pc.MaxRuns == 0 {
		pc.MaxRuns = DefaultPrecisionMaxRuns
	}
	if pc.BatchRuns == 0 {
		pc.BatchRuns = DefaultPrecisionBatch
	}
	return pc
}

func (pc PrecisionConfig) validate() error {
	if pc.TargetRadius < 0 || pc.Level <= 0 || pc.Level >= 1 {
		return fmt.Errorf("%w: bad precision target or level", ErrBadOptions)
	}
	if pc.MaxRuns < 4 || pc.BatchRuns < 2 {
		return fmt.Errorf("%w: precision study needs MaxRuns >= 4 and BatchRuns >= 2", ErrBadOptions)
	}
	for _, a := range pc.Alphas {
		if a < 0 || a > 0.5 {
			return fmt.Errorf("%w: precision alpha %v outside [0, 0.5]", ErrBadOptions, a)
		}
	}
	return nil
}

// PrecisionRow is one (alpha, estimator) cell of a precision study.
type PrecisionRow struct {
	Alpha     float64
	Estimator Estimator

	// Analytic is the closed-form pool revenue (ground truth).
	Analytic float64

	// Estimate and Radius are the cell's final estimate and confidence
	// half-width at the study's level.
	Estimate float64
	Radius   float64

	// Runs is the number of simulation runs the cell consumed before its
	// interval closed under TargetRadius (or MaxRuns stopped it).
	Runs int

	// VRF is the estimator's measured variance reduction factor: how many
	// plain runs one of its runs is worth (1 for the plain estimator).
	VRF float64

	// RunsToTarget and PlainRunsToTarget project, from the cell's own
	// variance estimates, the runs needed to reach TargetRadius with this
	// estimator and with the plain mean — the study's headline comparison.
	RunsToTarget      int
	PlainRunsToTarget int
}

// PrecisionResult is a complete precision study.
type PrecisionResult struct {
	Rows []PrecisionRow

	// TargetRadius and Level echo the study's targets.
	TargetRadius float64
	Level        float64
}

// Precision runs the runs-to-target-precision study: every (alpha,
// estimator) cell simulates in batches until its confidence interval
// reaches the target half-width, and reports the measured variance
// reduction alongside projected run counts. Cells are scheduled across the
// engine's workers; within a cell, runs are sequential on one reused
// simulator (the adaptive stopping rule is inherently serial).
func Precision(opts Options, pc PrecisionConfig) (PrecisionResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return PrecisionResult{}, err
	}
	pc = pc.withDefaults()
	if err := pc.validate(); err != nil {
		return PrecisionResult{}, err
	}
	schedule, err := rewards.Constant(fig8Ku, rewards.NoDepthLimit)
	if err != nil {
		return PrecisionResult{}, err
	}

	type cell struct {
		alpha float64
		est   Estimator
	}
	cells := make([]cell, 0, len(pc.Alphas)*len(pc.Estimators))
	for _, alpha := range pc.Alphas {
		for _, est := range pc.Estimators {
			cells = append(cells, cell{alpha, est})
		}
	}
	rows, err := grid(opts.Parallelism, len(cells), func(i int) (PrecisionRow, error) {
		return precisionCell(opts, pc, schedule, cells[i].alpha, cells[i].est)
	})
	if err != nil {
		return PrecisionResult{}, err
	}
	return PrecisionResult{Rows: rows, TargetRadius: pc.TargetRadius, Level: pc.Level}, nil
}

// precisionCell runs one (alpha, estimator) cell to its stopping rule.
func precisionCell(opts Options, pc PrecisionConfig, schedule rewards.Schedule, alpha float64, est Estimator) (PrecisionRow, error) {
	pop, err := mining.TwoAgent(alpha)
	if err != nil {
		return PrecisionRow{}, err
	}
	model, err := core.New(core.Params{Alpha: alpha, Gamma: fig8Gamma, Schedule: schedule})
	if err != nil {
		return PrecisionRow{}, err
	}
	analytic := model.Revenue().PoolAbsolute(core.Scenario1)

	base := sim.Config{
		Population:  pop,
		Gamma:       fig8Gamma,
		Schedule:    schedule,
		Blocks:      opts.Blocks,
		Audit:       opts.Audit,
		FastForward: pc.FastForward,
	}
	rn := sim.NewRunner()
	seedBase := jobkey.SeedBase(opts.Seed, base)
	// The cell's two row families — plain and antithetic mirror — have
	// fixed content addresses; only the per-run seed varies.
	plainKey := jobkey.ForConfig(base)
	antiBase := base
	antiBase.Antithetic = true
	antiKey := jobkey.ForConfig(antiBase)

	var acc stats.Accumulator // plain observations, or antithetic pair means
	var all stats.Accumulator // antithetic halves (the plain-variance proxy)
	var paired stats.Paired   // control-variate (revenue, event-share) pairs
	runs, idx := 0, 0
	estimate, radius := 0.0, math.Inf(1)

	for runs < pc.MaxRuns {
		for b := 0; b < pc.BatchRuns && runs < pc.MaxRuns; {
			cfg := base
			cfg.Seed = sim.DeriveSeed(seedBase, idx)
			idx++
			res, err := cachedRun(rn, cfg, plainKey.Row(cfg.Seed), opts.Cache)
			if err != nil {
				return PrecisionRow{}, err
			}
			y := res.PoolAbsolute(core.Scenario1)
			switch est {
			case EstimatorAntithetic:
				cfg.Antithetic = true
				mirror, err := cachedRun(rn, cfg, antiKey.Row(cfg.Seed), opts.Cache)
				if err != nil {
					return PrecisionRow{}, err
				}
				ym := mirror.PoolAbsolute(core.Scenario1)
				acc.Add((y + ym) / 2)
				all.Add(y)
				all.Add(ym)
				runs += 2
				b += 2
			case EstimatorControlVariate:
				paired.Add(y, res.SelfishEventShare())
				acc.Add(y)
				runs++
				b++
			default:
				acc.Add(y)
				runs++
				b++
			}
		}
		if est == EstimatorControlVariate {
			ci, err := paired.ControlVariateInterval(alpha, pc.Level)
			if err != nil {
				continue
			}
			estimate, radius = ci.Mean, ci.Radius
		} else {
			ci, err := acc.ConfidenceInterval(pc.Level)
			if err != nil {
				continue
			}
			estimate, radius = ci.Mean, ci.Radius
		}
		if radius <= pc.TargetRadius {
			break
		}
	}

	// Project run counts to the target from the cell's own variance
	// estimates: the effective per-run deviation of the estimator against
	// the plain per-run deviation of the same stream.
	vrf := 1.0
	var sdEff, sdPlain float64
	switch est {
	case EstimatorControlVariate:
		vrf = paired.VarianceReductionFactor()
		sdEff = math.Sqrt(paired.ResidualVariance())
		sdPlain = math.Sqrt(paired.VarianceY())
	case EstimatorAntithetic:
		// A pair costs two runs, so per-run-equivalent variance is twice
		// the pair-mean variance.
		varZ := acc.Variance()
		varY := all.Variance()
		if varZ > 0 {
			vrf = varY / (2 * varZ)
		} else if varY > 0 {
			vrf = math.Inf(1)
		}
		sdEff = math.Sqrt(2 * varZ)
		sdPlain = math.Sqrt(varY)
	default:
		sdEff = acc.StdDev()
		sdPlain = sdEff
	}
	runsTo := stats.RunsForRadius(sdEff, pc.Level, pc.TargetRadius)
	if est == EstimatorAntithetic && runsTo < math.MaxInt && runsTo%2 == 1 {
		runsTo++
	}
	return PrecisionRow{
		Alpha:             alpha,
		Estimator:         est,
		Analytic:          analytic,
		Estimate:          estimate,
		Radius:            radius,
		Runs:              runs,
		VRF:               vrf,
		RunsToTarget:      runsTo,
		PlainRunsToTarget: stats.RunsForRadius(sdPlain, pc.Level, pc.TargetRadius),
	}, nil
}

// Table renders the study as rows.
func (r PrecisionResult) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("Precision — runs to a +/-%g pool-revenue CI at %g%% (gamma=0.5, Ku=4/8 Ks, scenario 1)",
			r.TargetRadius, r.Level*100),
		"alpha", "estimator", "analytic", "estimate", "radius", "runs", "VRF",
		"runs-to-target", "plain-runs-to-target",
	)
	for _, row := range r.Rows {
		_ = t.AddRow(
			formatAlpha(row.Alpha),
			row.Estimator.String(),
			strconv.FormatFloat(row.Analytic, 'f', 4, 64),
			strconv.FormatFloat(row.Estimate, 'f', 4, 64),
			strconv.FormatFloat(row.Radius, 'f', 4, 64),
			strconv.Itoa(row.Runs),
			strconv.FormatFloat(row.VRF, 'f', 2, 64),
			formatRuns(row.RunsToTarget),
			formatRuns(row.PlainRunsToTarget),
		)
	}
	return t
}

// formatRuns renders a projected run count, marking the unreachable.
func formatRuns(n int) string {
	if n == math.MaxInt {
		return "inf"
	}
	return strconv.Itoa(n)
}
