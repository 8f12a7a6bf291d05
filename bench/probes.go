package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/rng"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// The probes time the layers that run inside sim.Runner.Run, which the
// replica's spans cannot split, on the workload's own inputs: the blocks of
// its probe row, its population and its strategies.

const (
	// referenceWindow mirrors the simulator's cap on the uncle reference
	// depth it configures its tree with.
	referenceWindow = 64

	// settleBatch is the stride, in chain blocks, of the settle probe's
	// Advance calls, matching the simulator's streaming flush batch.
	settleBatch = 256

	// chainPasses is how many times the chain probes rebuild and settle the
	// probe row's tree; they report the median pass.
	chainPasses = 3
)

// probes holds the per-layer probe timings of one workload.
type probes struct {
	extendNs, settleNs, treeBytes  float64
	sampleNs                       float64
	uint64Ns, float64Ns, expUnitNs float64
	observeNs                      float64
	lookupNs, compileMs, solveMs   float64
	tables, solves                 int
	timed                          bool // the probe row ran on the time axis
	mismatch                       bool // sim.RunTrace disagreed with the replica's row
	chainNote, observeNote         string
}

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink uint64

// nsPer returns the nanoseconds since start per operation.
func nsPer(start time.Time, ops int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// runProbes times the layers on the replica row with the most stale blocks.
// draws is the number of calls each rng and mining probe times and the
// number of table lookups.
func runProbes(rp *replica, draws int, seed uint64) (probes, error) {
	var pr probes
	probe := 0
	for i, row := range rp.rows {
		if row.res.StaleCount > rp.rows[probe].res.StaleCount {
			probe = i
		}
	}
	row := rp.rows[probe]
	cfg := rp.cfgs[row.job]
	cfg.Seed = row.seed
	res, tree, err := sim.RunTrace(cfg)
	if err != nil {
		return pr, err
	}
	pr.mismatch = !sameResult(res, row.res)
	pr.timed = cfg.Time.Enabled

	if err := pr.chain(tree, cfg); err != nil {
		return pr, err
	}
	path := tree.PathTo(tree.LongestTips()[0])
	if err := pr.difficulty(tree, path, draws); err != nil {
		return pr, err
	}

	pop := cfg.Population
	r := rng.New(seed)
	start := time.Now()
	for i := 0; i < draws; i++ {
		sink += uint64(pop.Sample(r).ID)
	}
	pr.sampleNs = nsPer(start, draws)
	start = time.Now()
	for i := 0; i < draws; i++ {
		sink += r.Uint64()
	}
	pr.uint64Ns = nsPer(start, draws)
	var f float64
	start = time.Now()
	for i := 0; i < draws; i++ {
		f += r.Float64()
	}
	pr.float64Ns = nsPer(start, draws)
	start = time.Now()
	for i := 0; i < draws; i++ {
		f += r.ExpUnit()
	}
	pr.expUnitNs = nsPer(start, draws)
	sink += uint64(f)

	pr.decisionTables(rp.cfgs, res, draws)
	return pr, pr.core()
}

// chain replays the probe tree's blocks in ID order into a fresh tree through
// Tree.ExtendAt, timing the extends and the full tree's bytes. A second
// replay settles the longest chain as it grows, through
// StreamSettler.Advance and Tree.CompactBelow in batches, as the streaming
// simulator does, and times those two calls. Costs are per block of the
// tree.
func (pr *probes) chain(src *chain.Tree, cfg sim.Config) error {
	schedule := cfg.Schedule
	if schedule.MaxDepth() == 0 {
		schedule = rewards.Ethereum()
	}
	window := min(schedule.MaxDepth(), referenceWindow)
	full := chain.Config{MaxUncleDepth: window, MaxUnclesPerBlock: cfg.MaxUnclesPerBlock, BlocksHint: src.Len() - 1}
	streamed := full
	streamed.BlocksHint = 4 * (window + 1 + settleBatch)

	type block struct {
		parent chain.BlockID
		miner  chain.MinerID
		at     float64
		uncles []chain.BlockID
	}
	blocks := make([]block, src.Len()-1)
	for i := range blocks {
		id := chain.BlockID(i + 1)
		parent, _, uncles := src.BlockInfo(id)
		blocks[i] = block{parent, src.MinerOf(id), src.TimeOf(id), uncles}
	}
	// keep[i] is the lowest height blocks[i:] read while extending (a
	// parent, an uncle, the ancestors between them): compaction before
	// replaying blocks[i] must stay below it.
	keep := make([]int, len(blocks)+1)
	keep[len(blocks)] = math.MaxInt
	for i := len(blocks) - 1; i >= 0; i-- {
		low := src.HeightOf(blocks[i].parent)
		for _, u := range blocks[i].uncles {
			low = min(low, src.HeightOf(u))
		}
		keep[i] = min(low, keep[i+1])
	}
	path := src.PathTo(src.LongestTips()[0])
	n := float64(len(blocks))

	var extend, settle []float64
	for pass := 0; pass < chainPasses; pass++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		t := chain.NewTree(full, src.MinerOf(src.Genesis()))
		for _, b := range blocks {
			if _, err := t.ExtendAt(b.parent, b.miner, b.uncles, b.at); err != nil {
				return fmt.Errorf("replaying block: %w", err)
			}
		}
		extend = append(extend, float64(time.Since(start).Nanoseconds())/n)
		runtime.ReadMemStats(&after)
		pr.treeBytes = float64(after.TotalAlloc-before.TotalAlloc) / n

		t = chain.NewTree(streamed, src.MinerOf(src.Genesis()))
		ss := chain.NewStreamSettler(schedule)
		next := min(settleBatch, len(path)-1)
		var settleNs time.Duration
		for i, b := range blocks {
			id, err := t.ExtendAt(b.parent, b.miner, b.uncles, b.at)
			if err != nil {
				return fmt.Errorf("replaying block: %w", err)
			}
			for next > ss.SettledHeight() && path[next] <= id {
				start := time.Now()
				if err := ss.Advance(t, path[next], chain.SettleHooks{}); err != nil {
					return fmt.Errorf("settling: %w", err)
				}
				t.CompactBelow(min(next-window-1, keep[i+1]))
				settleNs += time.Since(start)
				next = min(next+settleBatch, len(path)-1)
			}
		}
		settle = append(settle, float64(settleNs.Nanoseconds())/n)
		sink += uint64(ss.RegularCount())
	}
	pr.extendNs, pr.settleNs = median(extend), median(settle)
	pr.chainNote = fmt.Sprintf("%d blocks, median of %d passes", len(blocks), chainPasses)
	return nil
}

// difficulty feeds the probe row's main chain to the two feedback
// controllers. A timeless row has no timestamps, so it is fed unit spacing.
func (pr *probes) difficulty(tree *chain.Tree, path []chain.BlockID, draws int) error {
	if len(path) < 2 {
		pr.observeNote = "no chain"
		return nil
	}
	times := make([]float64, len(path))
	uncles := make([]int, len(path))
	stamped := false
	for i, b := range path {
		times[i] = tree.TimeOf(b)
		uncles[i] = len(tree.UnclesOf(b))
		stamped = stamped || times[i] != 0
	}
	pr.observeNote = "chain timestamps"
	if !stamped {
		for i := range times {
			times[i] = float64(i)
		}
		pr.observeNote = "unit spacing (timeless row)"
	}
	// Each controller sees at least a tenth of the draws, in whole passes.
	passes := max(1, draws/10/(len(path)-1))
	observed := 0
	start := time.Now()
	for _, rule := range []difficulty.Rule{difficulty.BitcoinStyle, difficulty.EIP100} {
		c, err := difficulty.NewController(difficulty.Params{Rule: rule})
		if err != nil {
			return err
		}
		for p := 0; p < passes; p++ {
			c.Reset()
			for i := 1; i < len(path); i++ {
				c.ObserveBlock(times[i], uncles[i])
			}
			observed += len(path) - 1
		}
		sink += uint64(c.Retargets())
	}
	pr.observeNs = nsPer(start, observed)
	return nil
}

// decisionTables compiles the workload's strategies and times lookups over
// the race frames the probe row visited.
func (pr *probes) decisionTables(cfgs []sim.Config, res sim.Result, draws int) {
	var tables []*sim.DecisionTable
	var compile []float64
	for _, st := range strategiesOf(cfgs) {
		start := time.Now()
		tables = append(tables, sim.CompileDecisionTable(st))
		compile = append(compile, float64(time.Since(start).Nanoseconds())/1e6)
	}
	pr.tables = len(tables)
	pr.compileMs = median(compile)

	seen := make(map[core.State]bool)
	var frames []core.State
	for _, occ := range res.OccupancyByPool {
		for s := range occ {
			if !seen[s] {
				seen[s] = true
				frames = append(frames, s)
			}
		}
	}
	slices.SortFunc(frames, func(a, b core.State) int {
		if a.S != b.S {
			return a.S - b.S
		}
		return a.H - b.H
	})
	if len(frames) == 0 {
		frames = []core.State{{}}
	}
	lookups := 0
	start := time.Now()
	for lookups < draws {
		for _, t := range tables {
			for _, f := range frames {
				sink += uint64(t.ReactToPool(f.S, f.H, 0).PublishTo + t.ReactToHonest(f.S, f.H, 0).PublishTo)
			}
		}
		lookups += 2 * len(tables) * len(frames)
	}
	pr.lookupNs = nsPer(start, lookups)
}

// core times the closed-form solve of every Fig. 8 grid point.
func (pr *probes) core() error {
	schedule, err := fig8Schedule()
	if err != nil {
		return err
	}
	var solves []float64
	for _, alpha := range fig8Alphas() {
		start := time.Now()
		m, err := core.New(core.Params{Alpha: alpha, Gamma: paperGamma, Schedule: schedule})
		if err != nil {
			return err
		}
		rev := m.Revenue()
		solves = append(solves, float64(time.Since(start).Nanoseconds())/1e6)
		sink += uint64(rev.PoolAbsolute(core.Scenario1) * 1e6)
	}
	pr.solves = len(solves)
	pr.solveMs = median(solves)
	return nil
}
