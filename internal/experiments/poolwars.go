package experiments

import (
	"fmt"
	"sync"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/table"
)

// This driver explores the regime the paper leaves as future work: several
// selfish pools racing each other on the same chain. Closed forms stop at
// one attacker (Grunspan & Pérez-Marco show Ethereum's reward system
// already strains the single-pool combinatorics); the tree-based simulator
// reaches the K-pool regime directly by giving each pool its own private
// branch and strategy over the shared block tree.

// poolWarsAlphas is the hash-power grid swept for each of the two pools.
var poolWarsAlphas = []float64{0.10, 0.20, 0.30}

// poolWarsHeteroAlpha2 is the control pool's hash power in the
// heterogeneous rows: pool 1 runs Algorithm 1 while pool 2 follows the
// protocol, isolating how much of the damage needs a second attacker.
const poolWarsHeteroAlpha2 = 0.20

// PoolWarsRow is one (alpha1, alpha2) point of the two-pool race:
// per-pool and honest-crowd absolute revenues under both difficulty
// scenarios, plus the fraction of blocks lost to the rivalry.
type PoolWarsRow struct {
	Alpha1, Alpha2     float64
	Strategy1          string
	Strategy2          string
	Pool1, Pool2       float64 // scenario-1 absolute revenue
	Honest             float64
	Pool1EIP, Pool2EIP float64 // scenario-2 (EIP100) absolute revenue
	StaleFraction      float64
}

// PoolWarsResult is the two-pool race sweep: an alpha1 x alpha2 grid of
// Algorithm-1 pools followed by heterogeneous rows pairing an Algorithm-1
// attacker with an honest-control pool.
type PoolWarsResult struct {
	Rows []PoolWarsRow
}

// poolWarsPoint is one (alpha1, alpha2, strategies) grid point of the
// two-pool race.
type poolWarsPoint struct {
	alpha1, alpha2 float64
	specs          []sim.StrategySpec
	pop            *mining.Population
}

// poolWarsGrid builds the sweep's fixed grid — points and their aggregate
// populations — once per process. Populations and specs are immutable and
// shared read-only by the engine's workers, so reusing them across sweeps
// changes nothing but the per-call setup cost (the sweep is the result
// cache's hottest client, where setup used to dominate a fully warmed
// pass).
var poolWarsGrid = sync.OnceValues(func() ([]poolWarsPoint, error) {
	algorithm1 := sim.MustStrategySpec("algorithm1")
	honest := sim.MustStrategySpec("honest")
	var points []poolWarsPoint
	for _, alpha1 := range poolWarsAlphas {
		for _, alpha2 := range poolWarsAlphas {
			points = append(points, poolWarsPoint{alpha1: alpha1, alpha2: alpha2,
				specs: []sim.StrategySpec{algorithm1, algorithm1}})
		}
	}
	for _, alpha1 := range poolWarsAlphas {
		points = append(points, poolWarsPoint{alpha1: alpha1, alpha2: poolWarsHeteroAlpha2,
			specs: []sim.StrategySpec{algorithm1, honest}})
	}
	for i := range points {
		pop, err := mining.MultiAgent(points[i].alpha1, points[i].alpha2)
		if err != nil {
			return nil, err
		}
		points[i].pop = pop
	}
	return points, nil
})

// PoolWars runs the two-pool race at gamma = 0.5, scheduling the full
// (alpha1 x alpha2) x run grid — both Algorithm-1 pools, plus one
// heterogeneous row per alpha1 with an honest-control second pool — on the
// shared experiment engine.
func PoolWars(opts Options) (PoolWarsResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return PoolWarsResult{}, err
	}

	points, err := poolWarsGrid()
	if err != nil {
		return PoolWarsResult{}, err
	}
	jobs := make([]simJob, len(points))
	for i := range points {
		jobs[i] = simJob{
			alpha: points[i].alpha1,
			pop:   points[i].pop,
			specs: points[i].specs,
			cfg:   sim.Config{Gamma: fig8Gamma},
		}
	}
	series, err := runSimGrid(opts, jobs)
	if err != nil {
		return PoolWarsResult{}, err
	}

	rows, err := parallel.Map(opts.Parallelism, len(points), func(i int) (PoolWarsRow, error) {
		pt := points[i]
		s := series[i]
		var stale, total float64
		for j := range s.Runs {
			r := &s.Runs[j]
			stale += float64(r.StaleCount)
			total += float64(r.RegularCount + r.UncleCount + r.StaleCount)
		}
		row := PoolWarsRow{
			Alpha1:    pt.alpha1,
			Alpha2:    pt.alpha2,
			Strategy1: pt.specs[0].String(),
			Strategy2: pt.specs[1].String(),
			Pool1:     s.AbsoluteOf(1, core.Scenario1).Mean(),
			Pool2:     s.AbsoluteOf(2, core.Scenario1).Mean(),
			Honest:    s.AbsoluteOf(mining.HonestPool, core.Scenario1).Mean(),
			Pool1EIP:  s.AbsoluteOf(1, core.Scenario2).Mean(),
			Pool2EIP:  s.AbsoluteOf(2, core.Scenario2).Mean(),
		}
		if total > 0 {
			row.StaleFraction = stale / total
		}
		return row, nil
	})
	if err != nil {
		return PoolWarsResult{}, err
	}
	return PoolWarsResult{Rows: rows}, nil
}

// Homogeneous returns the Algorithm-1-vs-Algorithm-1 grid rows.
func (r PoolWarsResult) Homogeneous() []PoolWarsRow {
	var out []PoolWarsRow
	for _, row := range r.Rows {
		if row.Strategy1 == row.Strategy2 {
			out = append(out, row)
		}
	}
	return out
}

// Heterogeneous returns the mixed-strategy control rows.
func (r PoolWarsResult) Heterogeneous() []PoolWarsRow {
	var out []PoolWarsRow
	for _, row := range r.Rows {
		if row.Strategy1 != row.Strategy2 {
			out = append(out, row)
		}
	}
	return out
}

// Table renders the sweep.
func (r PoolWarsResult) Table() *table.Table {
	t := table.New(
		"Pool wars — two competing pools (gamma=0.5; revenue per rescaled time unit)",
		"alpha1 x alpha2 (strategies)", "pool1", "pool2", "honest",
		"pool1(EIP100)", "pool2(EIP100)", "stale frac",
	)
	for _, row := range r.Rows {
		label := fmt.Sprintf("%.2f x %.2f (%s/%s)",
			row.Alpha1, row.Alpha2, row.Strategy1, row.Strategy2)
		_ = t.AddNumericRow(label, 4,
			row.Pool1, row.Pool2, row.Honest,
			row.Pool1EIP, row.Pool2EIP, row.StaleFraction)
	}
	return t
}
