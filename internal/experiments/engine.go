package experiments

import (
	"fmt"
	"math"

	"github.com/ethselfish/ethselfish/internal/jobkey"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// This file is the experiment engine shared by every driver. Drivers
// describe their parameter grid; the engine turns it into rows through an
// explicit pipeline — request → jobs → rows:
//
//   - grid evaluates an arbitrary function at every grid point (used
//     directly by the analytic drivers, whose points are closed-form
//     solves).
//   - runSimGrid resolves each job to a full sim.Config, derives its
//     canonical content address (jobkey.ForConfig) and stream-family base
//     seed (jobkey.SeedBase), and flattens (grid-point × run) into
//     individually addressed rows. Rows whose addresses coincide within the
//     sweep are computed once and scattered; the remaining unique rows are
//     served from the result cache when present, and simulated across the
//     worker pool (and stored) otherwise. Per-run seeds are derived
//     exactly as the sequential sim.RunMany would derive them, so the
//     assembled Series are bit-identical to a sequential sweep — which is
//     also why a cached row is exact: by determinism invariant 3, a row is
//     a pure function of its content address.

// grid evaluates fn at grid points 0..n-1 across at most workers
// goroutines (zero or negative workers: GOMAXPROCS) and returns the results
// in point order, reporting the lowest-index error. It is the experiment-
// facing name for the shared deterministic pool in internal/parallel.
func grid[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return parallel.Map(workers, n, fn)
}

// simJob describes the simulation work at one grid point: the pool's hash
// power and a builder for the rest of the configuration. The builder must
// be safe to call concurrently with other builders (it normally just fills
// in literals). A nil pop means the classic two-agent population at alpha;
// multi-pool drivers supply their own population, in which case alpha is
// purely the point's error-report label — identity and seeding both come
// from the resolved config's content address, never from alpha. Pool
// strategies are named by specs and resolved through the sim registry (one
// spec per pool, in pool order); a nil specs slice keeps whatever the
// builder configured (the engine's default is Algorithm 1 everywhere).
type simJob struct {
	alpha float64
	pop   *mining.Population
	specs []sim.StrategySpec
	build func(pop *mining.Population) sim.Config
}

// JobError locates a failure within a sweep: the grid point, its alpha,
// the run index, and the exact seed of the failing simulation, so a
// sweep-scale failure can be reproduced as a single sim.Run.
type JobError struct {
	// Point is the grid-point (job) index within the sweep.
	Point int

	// Alpha is the grid point's pool hash-power label.
	Alpha float64

	// Run is the run index within the point, and Seed the derived seed
	// of that run.
	Run  int
	Seed uint64

	// Err is the underlying failure.
	Err error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("experiments: grid point %d (alpha=%g) run %d (seed %d): %v",
		e.Point, e.Alpha, e.Run, e.Seed, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// resolveJobs turns driver jobs into fully resolved configs plus their two
// canonical identities: the content address (what the row is) and the
// stream-family base seed (which random draws its runs consume).
func resolveJobs(opts Options, jobs []simJob) (configs []sim.Config, keys []jobkey.Key, seedBases []uint64, err error) {
	configs = make([]sim.Config, len(jobs))
	keys = make([]jobkey.Key, len(jobs))
	seedBases = make([]uint64, len(jobs))
	for j, job := range jobs {
		pop := job.pop
		if pop == nil {
			pop, err = mining.TwoAgent(job.alpha)
			if err != nil {
				return nil, nil, nil, err
			}
		}
		cfg := job.build(pop)
		cfg.Population = pop
		cfg.Blocks = opts.Blocks
		cfg.Audit = opts.Audit
		if opts.FastForward {
			cfg.FastForward = true
		}
		if opts.NoDecisionTables {
			cfg.NoDecisionTables = true
		}
		if job.specs != nil {
			// Strategy instances are pure frame functions, so one
			// instance per job is safely shared by every worker that
			// picks up the job's runs.
			strategies, err := sim.NewStrategies(job.specs)
			if err != nil {
				return nil, nil, nil, err
			}
			cfg.Strategies = strategies
		}
		if !cfg.NoDecisionTables {
			// Compile each strategy's decision table once, up front, so no
			// worker pays the one-time compile inside its timed hot loop.
			sim.WarmDecisionTables(cfg.Strategies)
		}
		configs[j] = cfg
		keys[j] = jobkey.ForConfig(cfg)
		seedBases[j] = jobkey.SeedBase(opts.Seed, cfg)
	}
	return configs, keys, seedBases, nil
}

// runSimGrid executes every (grid-point × run) row of a sweep and returns
// one Series per job, in job order with runs in run order — bit-identical
// to running sim.RunMany sequentially at each point. Failures carry their
// sweep coordinates via JobError; cancellation via opts.Ctx returns the
// context error once in-flight runs drain.
//
// Rows flow through the pipeline: each is content-addressed; addresses
// repeated within the sweep are computed once and the result scattered to
// every duplicate; each unique address goes through cachedRun, so a sweep
// interrupted over a disk cache resumes by simply running again.
func runSimGrid(opts Options, jobs []simJob) ([]sim.Series, error) {
	configs, keys, seedBases, err := resolveJobs(opts, jobs)
	if err != nil {
		return nil, err
	}

	// Address every row, then deduplicate: rows sharing a content address
	// are the same pure function evaluation, so only the first occurrence
	// is dispatched and the rest alias its result.
	n := len(jobs) * opts.Runs
	seeds := make([]uint64, n)
	rowKeys := make([]jobkey.Key, n)
	repOf := make([]int, n)
	firstAt := make(map[jobkey.Key]int, n)
	unique := make([]int, 0, n)
	for k := 0; k < n; k++ {
		j, r := k/opts.Runs, k%opts.Runs
		seeds[k] = sim.DeriveSeed(seedBases[j], r)
		rowKeys[k] = keys[j].Row(seeds[k])
		if first, ok := firstAt[rowKeys[k]]; ok {
			repOf[k] = first
			continue
		}
		firstAt[rowKeys[k]] = k
		repOf[k] = k
		unique = append(unique, k)
	}

	// Each worker reuses one simulator (tree, arena, scratch) across all
	// the work items it processes; reuse never changes results, so the
	// grid stays bit-identical to sequential fresh-simulator runs.
	uniqueResults, _, err := parallel.MapWithCtx(opts.Ctx, opts.Parallelism, len(unique), sim.NewRunner,
		func(rn *sim.Runner, u int) (sim.Result, error) {
			k := unique[u]
			j := k / opts.Runs
			cfg := configs[j]
			cfg.Seed = seeds[k]
			res, err := cachedRun(rn, cfg, rowKeys[k], opts.Cache)
			if err != nil {
				return sim.Result{}, &JobError{Point: j, Alpha: jobs[j].alpha, Run: k % opts.Runs, Seed: cfg.Seed, Err: err}
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}

	// Scatter: place each unique result, then alias every duplicate to its
	// representative. repOf always points at an earlier (already placed)
	// index, so one forward pass suffices.
	results := make([]sim.Result, n)
	for u, k := range unique {
		results[k] = uniqueResults[u]
	}
	for k := 0; k < n; k++ {
		if repOf[k] != k {
			results[k] = results[repOf[k]]
		}
	}

	series := make([]sim.Series, len(jobs))
	for j := range series {
		// Clamp capacity so appending to one Series can never bleed
		// into the next one's backing storage.
		series[j] = sim.Series{Runs: results[j*opts.Runs : (j+1)*opts.Runs : (j+1)*opts.Runs]}
	}
	return series, nil
}

// cachedRun is the pipeline's single-row step, shared by runSimGrid and the
// drivers that adaptively run simulations outside a fixed grid (the
// precision study): one run at row address addr (cfg's key joined with
// cfg.Seed), served from cache when possible and stored after a miss — the
// store happens before the row is returned, so a cancellation arriving
// while later rows drain still keeps it. A nil cache degenerates to a plain
// run.
func cachedRun(rn *sim.Runner, cfg sim.Config, addr jobkey.Key, cache *resultcache.Cache) (sim.Result, error) {
	if cache == nil {
		return rn.Run(cfg)
	}
	res, ok, err := cache.GetRaw(addr, cfg.Seed)
	if err != nil {
		return sim.Result{}, err
	}
	if ok {
		return res, nil
	}
	res, err = rn.Run(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	if err := cache.PutRaw(addr, cfg.Seed, res); err != nil {
		return sim.Result{}, err
	}
	return res, nil
}

// sweep materializes an inclusive arithmetic parameter sweep as a grid.
// The point count is computed once (floored with an epsilon against the
// representation error of (max-start)/step) and each value is an index
// multiply, so repeated-addition drift can never gain or lose an endpoint:
// a grid like 0.05..0.45 step 0.05 always has exactly 9 points and its
// last point never overshoots max.
func sweep(start, max, step float64) []float64 {
	n := 1 + int(math.Floor((max-start)/step+1e-9))
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}
