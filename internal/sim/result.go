package sim

import (
	"fmt"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/stats"
)

// ResultSchemaVersion identifies the serialized Result row schema. Stores
// that persist Result rows (the resultcache disk journal) stamp it into
// their headers and refuse files written under any other version, so a
// schema change can never make an old row decode into a subtly different
// new Result. Bump it whenever the
// field set of Result (or of anything it embeds) changes; the schema pin
// test in schema_test.go fails until the change is acknowledged there.
const ResultSchemaVersion = 1

// Result summarizes one simulation run. Counts refer to the settled chain:
// races still in flight when the run ends are excluded.
type Result struct {
	// Alpha is the population's total selfish hash-power fraction (all
	// pools combined).
	Alpha float64

	// Blocks is the number of simulated block events.
	Blocks int

	// Pool and Honest aggregate rewards by camp: Pool sums every
	// colluding pool, Honest is the protocol-following crowd.
	Pool   chain.Reward
	Honest chain.Reward

	// ByPool is the per-pool reward tally, indexed by PoolID (entry 0 is
	// the honest crowd, so ByPool[0] == Honest and the remaining entries
	// sum to Pool).
	ByPool []chain.Reward

	// MinerRewards is the dense per-miner tally, indexed by MinerID
	// (IDs at or beyond its length earned nothing); MinerSeen marks the
	// IDs that appeared in the settlement. PerMiner is the map view.
	MinerRewards []chain.Reward
	MinerSeen    []bool

	// RegularCount, UncleCount and StaleCount classify settled blocks.
	RegularCount int
	UncleCount   int
	StaleCount   int

	// PoolUncleDistances and HonestUncleDistances count realized
	// reference distances by the uncle's camp (all pools combined).
	PoolUncleDistances   stats.Counter
	HonestUncleDistances stats.Counter

	// EventsByPool counts block-creation events by producing pool (entry 0
	// is the honest crowd); the entries sum to Blocks. Unlike the reward
	// tallies it is a pre-settlement count, so the selfish share of events
	// (see SelfishEventShare) is an average of Blocks i.i.d. indicators
	// with exactly known mean Alpha — the control-variate statistic the
	// variance-reduced estimators in internal/experiments regress against.
	EventsByPool []int64

	// OccupancyByPool counts block events by the (Ls, Lh) race frame
	// each pool observed just before the event, indexed by PoolID-1;
	// normalizing estimates the pool's stationary distribution. For a
	// poolless population it holds one entry pinned to state (0, 0).
	// It is materialized once per run from the simulator's pool-indexed
	// dense occupancy grids.
	OccupancyByPool []map[core.State]int64

	// Occupancy is the first pool's frame occupancy — the paper's
	// (Ls, Lh) state counts in the single-pool setting. It aliases
	// OccupancyByPool[0]. Serialization skips it for exactly that reason:
	// decoders rebuild the alias from OccupancyByPool (see
	// RestoreAliases) instead of materializing a second copy.
	Occupancy map[core.State]int64 `json:"-"`

	// The remaining fields exist only when the run's TimeConfig was
	// enabled; a timeless run leaves them zero.

	// Elapsed is the total simulated time: the clock after the last
	// block event.
	Elapsed float64

	// SettledTime is the timestamp of the consensus floor — the time
	// span the settled rewards accrued over (races still in flight at
	// the end of the run are excluded from both).
	SettledTime float64

	// InitialDifficulty and FinalDifficulty bracket the difficulty
	// trajectory; Retargets counts the adjustments applied (epoch
	// boundaries for the Bitcoin-style rule, observed blocks for EIP100,
	// zero for the static regime).
	InitialDifficulty float64
	FinalDifficulty   float64
	Retargets         int

	// Early and Steady are the before/after-adjustment windows of the
	// settled chain: Early covers its first min(epoch, settled) regular
	// blocks — the difficulty regime before the first Bitcoin-style
	// retarget (and, for EIP100, at most one epoch of 1/epoch-gain
	// steps) — and Steady covers the settled chain above the midpoint
	// floor: the consensus-floor height when the run first reached event
	// Blocks/2 (under fast-forward, the first event boundary at or past
	// it). That is roughly the trailing half, where the controller has
	// converged, and it is fixed before settlement reaches it, so the
	// window is tallied exactly, in O(1) state, as blocks settle. The
	// profitability question "does selfish mining actually pay?" is RateOf
	// compared across these two windows.
	Early, Steady Window
}

// RestoreAliases rebuilds the intra-Result aliases a serialized Result
// drops (Occupancy aliasing OccupancyByPool[0]). Decoders must call it
// after unmarshaling for the Result to be indistinguishable from a freshly
// computed one.
func (r *Result) RestoreAliases() {
	if len(r.OccupancyByPool) > 0 {
		r.Occupancy = r.OccupancyByPool[0]
	} else {
		r.Occupancy = nil
	}
}

// MinerReward returns one miner's settled tally (zero if it earned
// nothing).
func (r *Result) MinerReward(id chain.MinerID) chain.Reward {
	return chain.MinerRewardAt(r.MinerRewards, id)
}

// PerMiner returns the map view of the per-miner tallies: every miner that
// appeared in the settlement, keyed by ID. It is built on demand;
// iteration-heavy callers should use the dense MinerRewards directly.
func (r *Result) PerMiner() map[chain.MinerID]chain.Reward {
	return chain.PerMinerView(r.MinerRewards, r.MinerSeen)
}

// SelfishEventShare returns the fraction of block-creation events produced
// by any colluding pool. Its exact expectation is Alpha (each event's
// producer is an independent hash-power draw), which makes it the natural
// control variate for any per-run metric: the regression residual removes
// the sampling noise that the event draw sequence and the metric share.
func (r *Result) SelfishEventShare() float64 {
	if r.Blocks == 0 || len(r.EventsByPool) == 0 {
		return 0
	}
	var selfish int64
	for _, n := range r.EventsByPool[1:] {
		selfish += n
	}
	return float64(selfish) / float64(r.Blocks)
}

// normalizer returns the scenario's block count (regular, or regular plus
// referenced uncles).
func (r *Result) normalizer(s core.Scenario) float64 {
	n := float64(r.RegularCount)
	if s == core.Scenario2 {
		n += float64(r.UncleCount)
	}
	return n
}

// PoolAbsolute returns the pool's absolute revenue per rescaled time unit,
// the quantity plotted in Fig. 8 (scenario 1 divides by regular blocks,
// scenario 2 by regular plus uncle blocks).
func (r *Result) PoolAbsolute(s core.Scenario) float64 {
	n := r.normalizer(s)
	if n == 0 {
		return 0
	}
	return r.Pool.Total() / n
}

// HonestAbsolute returns the honest miners' absolute revenue per rescaled
// time unit.
func (r *Result) HonestAbsolute(s core.Scenario) float64 {
	n := r.normalizer(s)
	if n == 0 {
		return 0
	}
	return r.Honest.Total() / n
}

// TotalAbsolute returns the system-wide absolute revenue per rescaled time
// unit (the "Total" series of Fig. 9).
func (r *Result) TotalAbsolute(s core.Scenario) float64 {
	return r.PoolAbsolute(s) + r.HonestAbsolute(s)
}

// PoolShare returns the pools' combined relative share of all rewards.
func (r *Result) PoolShare() float64 {
	total := r.Pool.Total() + r.Honest.Total()
	if total == 0 {
		return 0
	}
	return r.Pool.Total() / total
}

// RewardOf returns one pool's settled reward tally (pool 0: the honest
// crowd; labels beyond the population earned nothing).
func (r *Result) RewardOf(pool mining.PoolID) chain.Reward {
	if pool < 0 || int(pool) >= len(r.ByPool) {
		return chain.Reward{}
	}
	return r.ByPool[pool]
}

// AbsoluteOf returns one pool's absolute revenue per rescaled time unit
// under the given scenario — the per-pool counterpart of PoolAbsolute.
func (r *Result) AbsoluteOf(pool mining.PoolID, s core.Scenario) float64 {
	n := r.normalizer(s)
	if n == 0 {
		return 0
	}
	return r.RewardOf(pool).Total() / n
}

// ShareOf returns one pool's relative share of all rewards.
func (r *Result) ShareOf(pool mining.PoolID) float64 {
	total := r.Pool.Total() + r.Honest.Total()
	if total == 0 {
		return 0
	}
	return r.RewardOf(pool).Total() / total
}

// RateOf returns one pool's time-averaged absolute reward rate (reward per
// unit time) over the whole settled chain: the time-domain counterpart of
// AbsoluteOf, and zero in timeless runs. Pool 0 is the honest crowd.
func (r *Result) RateOf(pool mining.PoolID) float64 {
	return safeRate(r.RewardOf(pool).Total(), r.SettledTime)
}

// TotalRate returns the system-wide absolute reward rate over the settled
// chain (zero in timeless runs) — the issuance rate a difficulty rule is
// supposed to keep bounded.
func (r *Result) TotalRate() float64 {
	return safeRate(r.Pool.Total()+r.Honest.Total(), r.SettledTime)
}

// StateProbability estimates the stationary probability of state s from the
// occupancy counts.
func (r *Result) StateProbability(s core.State) float64 {
	if r.Blocks == 0 {
		return 0
	}
	return float64(r.Occupancy[s]) / float64(r.Blocks)
}

// Runner executes simulations while reusing one simulator's storage — the
// block tree, uncle arena, candidate window, occupancy grid, and scratch
// buffers — across runs. Batch drivers hold one Runner per worker so run
// restarts stop re-allocating (and re-zeroing) ~100k-block storage; results
// are bit-identical to fresh Run calls because init resets all run state
// and reseeds the generator. A Runner is not safe for concurrent use.
type Runner struct {
	s simulator
}

// NewRunner returns an empty Runner; the first Run sizes its storage.
func NewRunner() *Runner {
	return &Runner{}
}

// Run executes one simulation, reusing the Runner's storage, and settles
// it. The returned Result owns all of its data (nothing aliases the reused
// buffers).
func (rn *Runner) Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	rn.s.init(cfg)
	return settleRun(&rn.s)
}

// Reset clears every trace of the previous run — including one that failed
// partway, e.g. on a strategy's invalid reaction — while keeping the
// allocated storage for reuse. Run resets implicitly (init rewinds all run
// state before every run, which is what makes reuse after a failure safe);
// Reset exists so long-lived holders can drop a failed run's state
// eagerly instead of carrying it until the next Run.
func (rn *Runner) Reset() {
	s := &rn.s
	s.recent = s.recent[:0]
	s.recentHead = 0
	s.forkChildren = s.forkChildren[:0]
	s.referencedInWindow = 0
	for i := range s.pools {
		s.pools[i].blocks = s.pools[i].blocks[:0]
		s.pools[i].published = 0
	}
	s.pools = s.pools[:0]
	s.flags = s.flags[:0]
	s.cfg = Config{}
	s.aud = nil
	s.ctrl = nil
	s.idBase = 0
}

// Run executes one simulation and settles it.
func Run(cfg Config) (Result, error) {
	return NewRunner().Run(cfg)
}

// RunTrace executes one simulation and additionally returns the full block
// tree, for post-hoc analysis. The tree retains every block including
// losers of resolved races and the pool's never-published blocks: eviction
// is off for this run, so its memory is O(Blocks).
func RunTrace(cfg Config) (Result, *chain.Tree, error) {
	s, result, err := traceRun(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	return result, s.tree, nil
}

// traceRun is RunTrace returning the whole simulator, whose state the
// one-shot oracle tests read.
func traceRun(cfg Config) (*simulator, Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, Result{}, err
	}
	s := &simulator{keepTree: true}
	s.init(cfg)
	result, err := settleRun(s)
	if err != nil {
		return nil, Result{}, err
	}
	return s, result, nil
}

// settleRun drives an initialized simulator through its run and settles it
// into a self-contained Result. The chain is settled at the consensus
// floor, so every race still in flight is excluded.
func settleRun(s *simulator) (Result, error) {
	if err := s.run(); err != nil {
		return Result{}, err
	}
	// A sparse audit sample still checks the exact state being settled.
	if err := s.auditFinal(); err != nil {
		return Result{}, err
	}
	return settleStream(s)
}

// Series summarizes repeated runs of one configuration: per-metric
// accumulators over independent seeds.
type Series struct {
	// Runs holds the individual results.
	Runs []Result
}

// DeriveSeed returns the seed of run i in a batch rooted at base. Runs
// within a batch get consecutive seeds — independent streams, because
// rng.New expands every seed through splitmix64 — while the golden-ratio
// multiplier spreads different bases apart so nearby base seeds cannot
// produce overlapping batches. It is exported so external schedulers (the
// experiments grid runner) can reproduce RunMany's per-run streams exactly.
func DeriveSeed(base uint64, i int) uint64 {
	return base*0x9E3779B97F4A7C15 + uint64(i)
}

// RunMany executes runs independent simulations with seeds derived from
// cfg.Seed. Runs are fanned out across cfg.Parallelism worker goroutines
// (default GOMAXPROCS), each reusing one Runner for all the runs it
// executes; because every run is seeded independently via DeriveSeed,
// Runner reuse resets all run state, and results are collected by run
// index, the returned Series is bit-identical to a sequential execution
// with fresh simulators.
func RunMany(cfg Config, runs int) (Series, error) {
	if runs <= 0 {
		return Series{}, fmt.Errorf("%w: runs %d must be positive", ErrBadConfig, runs)
	}
	results, err := parallel.MapWith(cfg.Parallelism, runs, NewRunner,
		func(rn *Runner, i int) (Result, error) {
			runCfg := cfg
			runCfg.Seed = DeriveSeed(cfg.Seed, i)
			return rn.Run(runCfg)
		})
	if err != nil {
		return Series{}, err
	}
	return Series{Runs: results}, nil
}

// Mean aggregates a metric over the runs and returns its accumulator. The
// metric receives each run in place — Results carry dense tallies and
// occupancy maps, so aggregation never copies them.
func (s Series) Mean(metric func(*Result) float64) stats.Accumulator {
	var acc stats.Accumulator
	for i := range s.Runs {
		acc.Add(metric(&s.Runs[i]))
	}
	return acc
}

// PoolAbsolute returns mean and std-error statistics of the pool's absolute
// revenue across runs.
func (s Series) PoolAbsolute(scenario core.Scenario) stats.Accumulator {
	return s.Mean(func(r *Result) float64 { return r.PoolAbsolute(scenario) })
}

// HonestAbsolute returns statistics of the honest absolute revenue.
func (s Series) HonestAbsolute(scenario core.Scenario) stats.Accumulator {
	return s.Mean(func(r *Result) float64 { return r.HonestAbsolute(scenario) })
}

// TotalAbsolute returns statistics of the total absolute revenue.
func (s Series) TotalAbsolute(scenario core.Scenario) stats.Accumulator {
	return s.Mean(func(r *Result) float64 { return r.TotalAbsolute(scenario) })
}

// AbsoluteOf returns statistics of one pool's absolute revenue across runs
// (pool 0: the honest crowd).
func (s Series) AbsoluteOf(pool mining.PoolID, scenario core.Scenario) stats.Accumulator {
	return s.Mean(func(r *Result) float64 { return r.AbsoluteOf(pool, scenario) })
}

// RateOf returns statistics of one pool's time-averaged absolute reward
// rate across runs (pool 0: the honest crowd). Only meaningful for timed
// configurations.
func (s Series) RateOf(pool mining.PoolID) stats.Accumulator {
	return s.Mean(func(r *Result) float64 { return r.RateOf(pool) })
}

// TotalRate returns statistics of the system-wide absolute reward rate.
func (s Series) TotalRate() stats.Accumulator {
	return s.Mean(func(r *Result) float64 { return r.TotalRate() })
}

// EarlyRateOf and SteadyRateOf return statistics of one pool's absolute
// reward rate inside the before- and after-adjustment windows.
func (s Series) EarlyRateOf(pool mining.PoolID) stats.Accumulator {
	return s.Mean(func(r *Result) float64 { return r.Early.RateOf(pool) })
}

// SteadyRateOf returns statistics of one pool's steady-window reward rate.
func (s Series) SteadyRateOf(pool mining.PoolID) stats.Accumulator {
	return s.Mean(func(r *Result) float64 { return r.Steady.RateOf(pool) })
}

// HonestUncleDistribution merges the honest uncle-distance counters of all
// runs and returns the distribution over distances 1..max.
func (s Series) HonestUncleDistribution(max int) stats.Distribution {
	var merged stats.Counter
	for i := range s.Runs {
		merged.Merge(&s.Runs[i].HonestUncleDistances)
	}
	return merged.Distribution(max)
}
