package experiments

import (
	"fmt"
	"math"

	"github.com/ethselfish/ethselfish/internal/difficulty"
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
//   - parallel.Map evaluates an arbitrary function at every grid point
//     (used directly by the analytic drivers, whose points are
//     closed-form solves).
//   - runSimGrid runs every (grid-point × run) row of a fixed-run sweep;
//     Precision extends its jobs' runs batch by batch. Both resolve their
//     jobs to full sim.Configs with canonical content addresses
//     (jobkey.ForConfig) and stream-family base seeds (jobkey.SeedBase),
//     and hand (job, run) rows to runRows, which addresses each row.
//     Rows whose addresses coincide within a call are computed once and
//     scattered; the remaining unique rows are served from the result
//     cache when present, and simulated across the worker pool (and
//     stored) otherwise. Timed rows that differ only in the difficulty
//     rule share one race walk (sim.Runner.RunGroup), so they are one work
//     item. Per-run seeds are derived exactly as the sequential
//     sim.RunMany would derive them, so the results are bit-identical to a
//     sequential sweep — which is also why a cached row is exact: by
//     determinism invariant 3, a row is a pure function of its content
//     address.

// simJob describes the simulation work at one grid point: the pool's hash
// power and the rest of the configuration, whose Population, Blocks and
// Audit the engine fills in. A nil pop means the classic
// two-agent population at alpha; multi-pool drivers supply their own
// population, in which case alpha is purely the point's error-report label
// — identity and seeding both come from the resolved config's content
// address, never from alpha. Pool strategies are named by specs and
// resolved through the sim registry (one spec per pool, in pool order); a
// nil specs slice keeps whatever cfg configured (the engine's default is
// Algorithm 1 everywhere).
type simJob struct {
	alpha float64
	pop   *mining.Population
	specs []sim.StrategySpec
	cfg   sim.Config
}

// resolvedJob is a simJob whose cfg is fully resolved, plus its two
// canonical identities: the content address (what its rows are) and the
// stream-family base seed (which random draws its runs consume).
type resolvedJob struct {
	simJob
	key      jobkey.Key
	seedBase uint64
}

// simRow is one row of a sweep: run run of job job.
type simRow struct{ job, run int }

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

// resolveJobs resolves driver jobs, in job order.
func resolveJobs(opts Options, jobs []simJob) ([]resolvedJob, error) {
	resolved := make([]resolvedJob, len(jobs))
	for j, job := range jobs {
		pop := job.pop
		if pop == nil {
			var err error
			if pop, err = mining.TwoAgent(job.alpha); err != nil {
				return nil, err
			}
		}
		cfg := job.cfg
		cfg.Population = pop
		cfg.Blocks = opts.Blocks
		cfg.Audit = opts.Audit
		if job.specs != nil {
			// Strategy instances are pure frame functions, so one
			// instance per job is safely shared by every worker that
			// picks up the job's runs.
			strategies, err := sim.NewStrategies(job.specs)
			if err != nil {
				return nil, err
			}
			cfg.Strategies = strategies
		}
		// Compile each strategy's decision table once, up front, so no
		// worker pays the one-time compile inside its timed hot loop.
		sim.WarmDecisionTables(cfg.Strategies)
		job.cfg = cfg
		resolved[j] = resolvedJob{simJob: job, key: jobkey.ForConfig(cfg), seedBase: jobkey.SeedBase(opts.Seed, cfg)}
	}
	return resolved, nil
}

// runSimGrid executes every (grid-point × run) row of a sweep and returns
// one Series per job, in job order with runs in run order — bit-identical
// to running sim.RunMany sequentially at each point.
func runSimGrid(opts Options, jobs []simJob) ([]sim.Series, error) {
	resolved, err := resolveJobs(opts, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]simRow, len(jobs)*opts.Runs)
	for k := range rows {
		rows[k] = simRow{k / opts.Runs, k % opts.Runs}
	}
	results, err := runRows(opts, resolved, rows)
	if err != nil {
		return nil, err
	}
	series := make([]sim.Series, len(jobs))
	for j := range series {
		// Clamp capacity so appending to one Series can never bleed
		// into the next one's backing storage.
		series[j] = sim.Series{Runs: results[j*opts.Runs : (j+1)*opts.Runs : (j+1)*opts.Runs]}
	}
	return series, nil
}

// runRows executes rows of the resolved jobs and returns their results in
// row order. Failures carry their sweep coordinates via JobError;
// cancellation via opts.Ctx returns the context error once in-flight runs
// drain. Every work item (see raceGroups) goes through cachedGroup, so a
// sweep interrupted over a disk cache resumes by simply running again.
func runRows(opts Options, jobs []resolvedJob, rows []simRow) ([]sim.Result, error) {
	// Address every row, then deduplicate: rows sharing a content address
	// are the same pure function evaluation, so only the first occurrence
	// is dispatched and the rest alias its result.
	n := len(rows)
	seeds := make([]uint64, n)
	rowKeys := make([]jobkey.Key, n)
	repOf := make([]int, n)
	firstAt := make(map[jobkey.Key]int, n)
	unique := make([]int, 0, n)
	for k, row := range rows {
		job := &jobs[row.job]
		seeds[k] = sim.DeriveSeed(job.seedBase, row.run)
		rowKeys[k] = job.key.Row(seeds[k])
		if first, ok := firstAt[rowKeys[k]]; ok {
			repOf[k] = first
			continue
		}
		firstAt[rowKeys[k]] = k
		repOf[k] = k
		unique = append(unique, k)
	}
	items := raceGroups(jobs, rows, seeds, unique)

	// Each worker reuses one simulator (tree, arena, scratch) across all
	// the work items it processes; reuse never changes results, so the
	// rows stay bit-identical to sequential fresh-simulator runs. Items
	// write disjoint rows of results.
	results := make([]sim.Result, n)
	_, _, err := parallel.MapWithCtx(opts.Ctx, opts.Parallelism, len(items), sim.NewRunner,
		func(rn *sim.Runner, i int) (struct{}, error) {
			members := items[i]
			// The first row is the race; every row rides it as a clock
			// under its own rule. Stack buffers cover the profitability
			// grid's three rules; larger groups spill to the heap.
			race := jobs[rows[members[0]].job].cfg
			race.Seed = seeds[members[0]]
			var ruleBuf [4]difficulty.Rule
			var addrBuf [4]jobkey.Key
			var outBuf [4]sim.Result
			rules, addrs, out := ruleBuf[:0], addrBuf[:0], outBuf[:0]
			for _, k := range members {
				rules = append(rules, jobs[rows[k].job].cfg.Time.Difficulty.Rule)
				addrs = append(addrs, rowKeys[k])
				out = append(out, sim.Result{})
			}
			if m, err := cachedGroup(rn, race, rules, addrs, opts.Cache, out); err != nil {
				k := members[m]
				return struct{}{}, &JobError{Point: rows[k].job, Alpha: jobs[rows[k].job].alpha, Run: rows[k].run, Seed: seeds[k], Err: err}
			}
			for m, k := range members {
				results[k] = out[m]
			}
			return struct{}{}, nil
		})
	if err != nil {
		return nil, err
	}

	// Alias every duplicate to its representative. repOf always points at
	// an earlier (already placed) index, so one forward pass suffices.
	for k := range results {
		if repOf[k] != k {
			results[k] = results[repOf[k]]
		}
	}
	return results, nil
}

// raceGroups gathers the unique rows into work items, in order of each
// item's first row. Timed rows at the same run seed whose configs differ
// only in the difficulty rule drive the same race walk (the time axis draws
// from its own stream and the race never reads the clock), so they form one
// item that sim.Runner.RunGroup simulates once. Every other row is an item
// of its own, at the cost of no extra hashing.
func raceGroups(jobs []resolvedJob, rows []simRow, seeds []uint64, unique []int) [][]int {
	type groupKey struct {
		race jobkey.Key
		seed uint64
	}
	raceKeys := make(map[int]jobkey.Key)
	itemOf := make(map[groupKey]int)
	items := make([][]int, 0, len(unique))
	for _, k := range unique {
		j := rows[k].job
		cfg := jobs[j].cfg
		if !cfg.Time.Enabled {
			items = append(items, []int{k})
			continue
		}
		race, ok := raceKeys[j]
		if !ok {
			cfg.Time.Difficulty.Rule = 0
			race = jobkey.ForConfig(cfg)
			raceKeys[j] = race
		}
		key := groupKey{race: race, seed: seeds[k]}
		if i, ok := itemOf[key]; ok {
			items[i] = append(items[i], k)
			continue
		}
		itemOf[key] = len(items)
		items = append(items, []int{k})
	}
	return items
}

// cachedGroup is the pipeline's step for one work item: the rows riding
// one walk of race, one clock per entry of rules (at row addresses addrs),
// settled into out. Every row is probed in the cache first; the rows that
// missed are simulated together in one sim.Runner.RunGroup walk and stored
// before returning — so a cancellation arriving while later items drain
// still keeps them. A nil cache degenerates to a plain run. On error it also
// reports which row failed (a failed walk is reported at its first
// simulated row).
func cachedGroup(rn *sim.Runner, race sim.Config, rules []difficulty.Rule, addrs []jobkey.Key, cache *resultcache.Cache, out []sim.Result) (int, error) {
	if cache == nil {
		return 0, rn.RunGroup(race, rules, out)
	}
	var missBuf [4]int
	missed := missBuf[:0]
	for i := range rules {
		res, ok, err := cache.GetRaw(addrs[i], race.Seed)
		if err != nil {
			return i, err
		}
		if ok {
			out[i] = res
		} else {
			missed = append(missed, i)
		}
	}
	if len(missed) == 0 {
		return 0, nil
	}
	runRules, runOut := rules, out
	if len(missed) < len(rules) {
		runRules, runOut = make([]difficulty.Rule, len(missed)), make([]sim.Result, len(missed))
		for m, i := range missed {
			runRules[m] = rules[i]
		}
	}
	if err := rn.RunGroup(race, runRules, runOut); err != nil {
		return missed[0], err
	}
	for m, i := range missed {
		out[i] = runOut[m]
		if err := cache.PutRaw(addrs[i], race.Seed, out[i]); err != nil {
			return i, err
		}
	}
	return 0, nil
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
