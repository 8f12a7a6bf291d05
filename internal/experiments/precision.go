package experiments

import (
	"fmt"
	"math"
	"strconv"

	"github.com/ethselfish/ethselfish/internal/core"
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
// Every cell is deterministic given (Options.Seed, alpha, estimator): its
// rows run through the experiment engine like every sweep's, so a
// precision study is reproducible run for run.

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

// Precision-study defaults.
const (
	// DefaultTargetRadius is the default confidence half-width target for
	// the pool's absolute revenue.
	DefaultTargetRadius = 0.002

	// DefaultPrecisionLevel is the study's confidence level.
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

	// MaxRuns caps a cell's simulation runs (zero:
	// DefaultPrecisionMaxRuns). Antithetic cells count both halves of a
	// pair.
	MaxRuns int
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
	if pc.MaxRuns == 0 {
		pc.MaxRuns = DefaultPrecisionMaxRuns
	}
	return pc
}

func (pc PrecisionConfig) validate() error {
	if pc.TargetRadius < 0 {
		return fmt.Errorf("%w: bad precision target", ErrBadOptions)
	}
	if pc.MaxRuns < 4 {
		return fmt.Errorf("%w: precision study needs MaxRuns >= 4", ErrBadOptions)
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
// reduction alongside projected run counts. The study advances in rounds:
// every open cell requests its next batch, the engine computes the rows no
// earlier round computed across its workers (the cells at one alpha share
// its plain rows), and each cell folds its batch in run order.
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

	// Job 2a is alpha a's plain job and 2a+1 its antithetic mirror. Their
	// seed bases coincide (a job's stream family excludes the statistical
	// modes), so run i of the mirror reflects run i of the plain job.
	jobs := make([]simJob, 0, 2*len(pc.Alphas))
	cells := make([]*precisionCell, 0, len(pc.Alphas)*len(pc.Estimators))
	for a, alpha := range pc.Alphas {
		cfg := sim.Config{Gamma: fig8Gamma, Schedule: schedule}
		jobs = append(jobs, simJob{alpha: alpha, cfg: cfg})
		cfg.Antithetic = true
		jobs = append(jobs, simJob{alpha: alpha, cfg: cfg})
		model, err := core.New(core.Params{Alpha: alpha, Gamma: fig8Gamma, Schedule: schedule})
		if err != nil {
			return PrecisionResult{}, err
		}
		analytic := model.Revenue().PoolAbsolute(core.Scenario1)
		for _, est := range pc.Estimators {
			c := &precisionCell{job: 2 * a, step: 1}
			c.PrecisionRow = PrecisionRow{Alpha: alpha, Estimator: est, Analytic: analytic, Radius: math.Inf(1)}
			if est == EstimatorAntithetic {
				c.step = 2
			}
			cells = append(cells, c)
		}
	}
	resolved, err := resolveJobs(opts, jobs)
	if err != nil {
		return PrecisionResult{}, err
	}

	// done[j] is job j's computed prefix of runs, grown round by round.
	done := make([][]sim.Result, len(jobs))
	for {
		need := make([]int, len(jobs))
		open := false
		for _, c := range cells {
			open = c.advance(done, pc, need) || open
		}
		if !open {
			break
		}
		var rows []simRow
		for j := range jobs {
			for r := len(done[j]); r < need[j]; r++ {
				rows = append(rows, simRow{j, r})
			}
		}
		results, err := runRows(opts, resolved, rows)
		if err != nil {
			return PrecisionResult{}, err
		}
		for k, row := range rows {
			done[row.job] = append(done[row.job], results[k])
		}
	}

	out := make([]PrecisionRow, len(cells))
	for i, c := range cells {
		out[i] = c.finish(pc.TargetRadius)
	}
	return PrecisionResult{Rows: out, TargetRadius: pc.TargetRadius, Level: DefaultPrecisionLevel}, nil
}

// precisionCell is one (alpha, estimator) cell on its way to its stopping
// rule. The embedded row carries its running estimate and radius and the
// runs it has requested.
type precisionCell struct {
	PrecisionRow
	job  int // the alpha's plain job; job+1 is its antithetic mirror
	step int // runs per run index: 2 for an antithetic pair, else 1

	acc    stats.Accumulator // one entry per folded index: plain runs, or antithetic pair means
	all    stats.Accumulator // antithetic halves (the plain-variance proxy)
	paired stats.Paired      // control-variate (revenue, event-share) pairs
}

// advance folds the cell's requested runs not yet folded, in run order, and
// updates its interval (the estimate and radius stay put while too few runs
// give none). If the cell is still open — its radius above target and its
// runs under the cap — it then requests its next batch, raising need to
// cover it in every job it reads, and reports true.
func (c *precisionCell) advance(done [][]sim.Result, pc PrecisionConfig, need []int) bool {
	for i := c.acc.N(); i < c.Runs/c.step; i++ {
		res := done[c.job][i]
		y := res.PoolAbsolute(core.Scenario1)
		switch c.Estimator {
		case EstimatorAntithetic:
			ym := done[c.job+1][i].PoolAbsolute(core.Scenario1)
			c.acc.Add((y + ym) / 2)
			c.all.Add(y)
			c.all.Add(ym)
		case EstimatorControlVariate:
			c.paired.Add(y, res.SelfishEventShare())
			c.acc.Add(y)
		default:
			c.acc.Add(y)
		}
	}
	var ci stats.Interval
	var err error
	if c.Estimator == EstimatorControlVariate {
		ci, err = c.paired.ControlVariateInterval(c.Alpha, DefaultPrecisionLevel)
	} else {
		ci, err = c.acc.ConfidenceInterval(DefaultPrecisionLevel)
	}
	if err == nil {
		c.Estimate, c.Radius = ci.Mean, ci.Radius
	}
	if c.Radius <= pc.TargetRadius || c.Runs >= pc.MaxRuns {
		return false
	}
	for b := 0; b < DefaultPrecisionBatch && c.Runs < pc.MaxRuns; b += c.step {
		c.Runs += c.step
	}
	for j := c.job; j < c.job+c.step; j++ {
		need[j] = max(need[j], c.Runs/c.step)
	}
	return true
}

// finish completes the cell's row: it projects run counts to the target
// from the cell's own variance estimates, the effective per-run deviation
// of the estimator against the plain per-run deviation of the same stream.
func (c *precisionCell) finish(target float64) PrecisionRow {
	c.VRF = 1
	var sdEff, sdPlain float64
	switch c.Estimator {
	case EstimatorControlVariate:
		c.VRF = c.paired.VarianceReductionFactor()
		sdEff = math.Sqrt(c.paired.ResidualVariance())
		sdPlain = math.Sqrt(c.paired.VarianceY())
	case EstimatorAntithetic:
		// A pair costs two runs, so per-run-equivalent variance is twice
		// the pair-mean variance.
		varZ := c.acc.Variance()
		varY := c.all.Variance()
		if varZ > 0 {
			c.VRF = varY / (2 * varZ)
		} else if varY > 0 {
			c.VRF = math.Inf(1)
		}
		sdEff = math.Sqrt(2 * varZ)
		sdPlain = math.Sqrt(varY)
	default:
		sdEff = c.acc.StdDev()
		sdPlain = sdEff
	}
	c.RunsToTarget = stats.RunsForRadius(sdEff, DefaultPrecisionLevel, target)
	if c.Estimator == EstimatorAntithetic && c.RunsToTarget < math.MaxInt && c.RunsToTarget%2 == 1 {
		c.RunsToTarget++
	}
	c.PlainRunsToTarget = stats.RunsForRadius(sdPlain, DefaultPrecisionLevel, target)
	return c.PrecisionRow
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
