package ethselfish

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/eyalsirer"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// Scenario selects the difficulty-adjustment normalization (Sec. IV-E2 of
// the paper).
type Scenario int

// The two difficulty scenarios.
const (
	// Scenario1 pins the regular-block rate to 1 (uncle-blind
	// difficulty: Bitcoin, pre-Byzantium Ethereum).
	Scenario1 Scenario = iota + 1

	// Scenario2 pins the regular-plus-uncle rate to 1 (EIP100).
	Scenario2
)

func (s Scenario) internal() core.Scenario {
	if s == Scenario2 {
		return core.Scenario2
	}
	return core.Scenario1
}

// String implements fmt.Stringer.
func (s Scenario) String() string { return s.internal().String() }

// NoDepthLimit marks a schedule that can reference uncles at any distance.
const NoDepthLimit = rewards.NoDepthLimit

// Schedule is an uncle/nephew reward schedule.
type Schedule struct {
	inner rewards.Schedule
}

// EthereumSchedule returns the Byzantium schedule used throughout the
// paper: Ku(l) = (8-l)/8 for distances 1..6, Kn = 1/32.
func EthereumSchedule() Schedule {
	return Schedule{inner: rewards.Ethereum()}
}

// ConstantSchedule returns a flat uncle reward ku (as a fraction of the
// static reward) at every referenceable distance up to maxDepth, with
// Ethereum's 1/32 nephew reward. Use NoDepthLimit for an unbounded depth.
func ConstantSchedule(ku float64, maxDepth int) (Schedule, error) {
	inner, err := rewards.Constant(ku, maxDepth)
	if err != nil {
		return Schedule{}, err
	}
	return Schedule{inner: inner}, nil
}

// BitcoinSchedule returns the schedule with no uncle or nephew rewards;
// under it the analysis reduces to Eyal and Sirer's (Remark 4).
func BitcoinSchedule() Schedule {
	return Schedule{inner: rewards.Bitcoin()}
}

// UncleReward returns Ku(distance) under the schedule.
func (s Schedule) UncleReward(distance int) float64 { return s.inner.Uncle(distance) }

// NephewReward returns Kn(distance) under the schedule.
func (s Schedule) NephewReward(distance int) float64 { return s.inner.Nephew(distance) }

// Option customizes Analyze, Simulate, and ProfitThreshold.
type Option interface {
	apply(*options)
}

type options struct {
	schedule    rewards.Schedule
	scenario    Scenario
	runs        int
	seed        uint64
	uncleLimit  int
	miners      int
	strategy    sim.Strategy
	strategyErr error
}

func defaultOptions() options {
	return options{
		schedule: rewards.Ethereum(),
		scenario: Scenario1,
		runs:     1,
	}
}

// ErrUnknownStrategy is returned by WithStrategy for unrecognized names.
var ErrUnknownStrategy = errors.New("ethselfish: unknown strategy")

// ParseStrategy resolves a strategy spec for Simulate through the sim
// registry: "algorithm1" (the paper's Algorithm 1), "honest" (control), the
// parametric stubborn family ("stubborn:lead=1,trail=2"), "eager-publish"
// with its lead trigger, plus the legacy aliases "trail-stubborn"
// (= stubborn:lead=1) and "eager-publish-<k>". The empty string is
// Algorithm 1.
func ParseStrategy(name string) (sim.Strategy, error) {
	if name == "" {
		return sim.Algorithm1{}, nil
	}
	s, err := sim.ParseStrategy(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %v", ErrUnknownStrategy, name, err)
	}
	return s, nil
}

type strategyOption struct {
	s   sim.Strategy
	err error
}

func (o strategyOption) apply(opts *options) { opts.strategy, opts.strategyErr = o.s, o.err }

// WithStrategy selects the pool's mining strategy by name (see
// ParseStrategy); Simulate fails with ErrUnknownStrategy for bad names.
// The default is the paper's Algorithm 1. The analytic model covers only
// Algorithm 1; variants are simulation-only.
func WithStrategy(name string) Option {
	s, err := ParseStrategy(name)
	return strategyOption{s: s, err: err}
}

type scheduleOption struct{ s rewards.Schedule }

func (o scheduleOption) apply(opts *options) { opts.schedule = o.s }

// WithSchedule selects the reward schedule (default: Ethereum Byzantium).
func WithSchedule(s Schedule) Option { return scheduleOption{s: s.inner} }

type scenarioOption Scenario

func (o scenarioOption) apply(opts *options) { opts.scenario = Scenario(o) }

// WithScenario selects the difficulty scenario for threshold searches
// (default: Scenario1).
func WithScenario(s Scenario) Option { return scenarioOption(s) }

type seedOption uint64

func (o seedOption) apply(opts *options) { opts.seed = uint64(o) }

// WithSeed fixes the simulation seed (default: 0).
func WithSeed(seed uint64) Option { return seedOption(seed) }

type runsOption int

func (o runsOption) apply(opts *options) { opts.runs = int(o) }

// WithRuns averages simulations over the given number of independent runs
// (default: 1; the paper uses 10).
func WithRuns(runs int) Option { return runsOption(runs) }

type uncleLimitOption int

func (o uncleLimitOption) apply(opts *options) { opts.uncleLimit = int(o) }

// WithUncleLimit caps uncle references per block in simulations (default:
// unlimited, matching the paper's model; Ethereum uses 2).
func WithUncleLimit(limit int) Option { return uncleLimitOption(limit) }

type minersOption int

func (o minersOption) apply(opts *options) { opts.miners = int(o) }

// WithMiners simulates a population of n equal-power miners (the paper's
// n = 1000 setup) instead of the two-agent abstraction. The selfish pool
// receives floor(n*alpha) miners, so alpha is realized up to 1/n.
func WithMiners(n int) Option { return minersOption(n) }

// Revenue reports the long-run reward rates of one configuration, in units
// of the static block reward.
type Revenue struct {
	// PoolStatic, PoolUncle and PoolNephew are the pool's reward rates;
	// the Honest fields are the honest miners'.
	PoolStatic, PoolUncle, PoolNephew       float64
	HonestStatic, HonestUncle, HonestNephew float64

	// RegularRate and UncleRate are the block-production rates used by
	// the two scenario normalizations.
	RegularRate, UncleRate float64

	inner core.Revenue
}

// Pool returns the pool's absolute revenue under the scenario — U_s in the
// paper, directly comparable to alpha.
func (r Revenue) Pool(s Scenario) float64 { return r.inner.PoolAbsolute(s.internal()) }

// Honest returns the honest miners' absolute revenue under the scenario.
func (r Revenue) Honest(s Scenario) float64 { return r.inner.HonestAbsolute(s.internal()) }

// Total returns the system-wide absolute revenue under the scenario.
func (r Revenue) Total(s Scenario) float64 { return r.inner.TotalAbsolute(s.internal()) }

// PoolShare returns the pool's relative share of all rewards (R_s).
func (r Revenue) PoolShare() float64 { return r.inner.PoolShare() }

// UncleDistances returns the probability that an honest miner's uncle is
// referenced at distance d (index d-1), normalized over 1..max — Table II
// of the paper.
func (r Revenue) UncleDistances(max int) []float64 {
	return r.inner.HonestUncleDistribution(max).P
}

// Analysis is the solved closed-form model.
type Analysis struct {
	model *core.Model
}

// Analyze solves the model for a pool with hash-power share alpha and
// network capability gamma. Accepted options: WithSchedule.
func Analyze(alpha, gamma float64, opts ...Option) (Analysis, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	model, err := core.New(core.Params{Alpha: alpha, Gamma: gamma, Schedule: o.schedule})
	if err != nil {
		return Analysis{}, err
	}
	return Analysis{model: model}, nil
}

// Revenue returns the model's long-run reward rates.
func (a Analysis) Revenue() Revenue {
	rev := a.model.Revenue()
	return Revenue{
		PoolStatic:   rev.PoolStatic,
		PoolUncle:    rev.PoolUncle,
		PoolNephew:   rev.PoolNephew,
		HonestStatic: rev.HonestStatic,
		HonestUncle:  rev.HonestUncle,
		HonestNephew: rev.HonestNephew,
		RegularRate:  rev.RegularRate,
		UncleRate:    rev.UncleRate,
		inner:        rev,
	}
}

// StateProbability returns the stationary probability of the race state
// (privateLen, publicLen) — pi(i,j) in the paper.
func (a Analysis) StateProbability(privateLen, publicLen int) float64 {
	return a.model.Pi(core.State{S: privateLen, H: publicLen})
}

// Profitable reports whether selfish mining beats honest mining under the
// scenario.
func (a Analysis) Profitable(s Scenario) bool {
	return a.Revenue().Pool(s) > a.model.Params().Alpha
}

// ProfitThreshold returns alpha*, the smallest hash-power share at which
// selfish mining is profitable. Accepted options: WithSchedule,
// WithScenario. It returns core.ErrNoThreshold (via errors.Is) when no
// alpha below 0.5 profits.
func ProfitThreshold(gamma float64, opts ...Option) (float64, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	return core.Threshold(core.ThresholdParams{
		Gamma:    gamma,
		Schedule: o.schedule,
		Scenario: o.scenario.internal(),
	})
}

// BitcoinThreshold returns the Eyal-Sirer baseline threshold
// (1-gamma)/(3-2*gamma).
func BitcoinThreshold(gamma float64) (float64, error) {
	return eyalsirer.Threshold(gamma)
}

// SimResult summarizes a simulation (averaged over runs when WithRuns > 1).
type SimResult struct {
	// Alpha is the realized selfish hash-power share.
	Alpha float64

	// Runs and BlocksPerRun record the effort.
	Runs, BlocksPerRun int

	// PoolRevenue and HonestRevenue are scenario-1 absolute revenues;
	// use the Scenario2 fields for the EIP100 normalization.
	PoolRevenue, HonestRevenue                   float64
	PoolRevenueScenario2, HonestRevenueScenario2 float64

	// PoolRevenueStdErr is the standard error across runs (0 for a
	// single run).
	PoolRevenueStdErr float64

	// RegularBlocks, UncleBlocks and StaleBlocks count settled blocks
	// across all runs.
	RegularBlocks, UncleBlocks, StaleBlocks int

	// UncleDistances is the honest uncle distance distribution over
	// 1..6, as in Table II.
	UncleDistances []float64
}

// Simulate runs the event-driven simulator for the given number of block
// events. Accepted options: WithSchedule, WithSeed, WithRuns,
// WithUncleLimit, WithMiners.
func Simulate(alpha, gamma float64, blocks int, opts ...Option) (SimResult, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	var (
		pop *mining.Population
		err error
	)
	if o.miners > 0 {
		// Floor with an epsilon: 100*0.29 is 28.999999999999996 in
		// float64, and a plain truncation would drop a selfish miner.
		pop, err = mining.Equal(o.miners, int(math.Floor(float64(o.miners)*alpha+1e-9)))
	} else {
		pop, err = mining.TwoAgent(alpha)
	}
	if err != nil {
		return SimResult{}, fmt.Errorf("ethselfish: %w", err)
	}
	if o.strategyErr != nil {
		return SimResult{}, o.strategyErr
	}
	var strategies []sim.Strategy
	if o.strategy != nil {
		strategies = slices.Repeat([]sim.Strategy{o.strategy}, pop.NumPools())
	}
	series, err := sim.RunMany(sim.Config{
		Population:        pop,
		Gamma:             gamma,
		Schedule:          o.schedule,
		Blocks:            blocks,
		Seed:              o.seed,
		MaxUnclesPerBlock: o.uncleLimit,
		Strategies:        strategies,
	}, o.runs)
	if err != nil {
		return SimResult{}, err
	}

	result := SimResult{
		Alpha:          pop.Alpha(),
		Runs:           o.runs,
		BlocksPerRun:   blocks,
		UncleDistances: series.HonestUncleDistribution(6).P,
	}
	pool1 := series.PoolAbsolute(core.Scenario1)
	result.PoolRevenue = pool1.Mean()
	result.PoolRevenueStdErr = pool1.StdErr()
	result.HonestRevenue = series.HonestAbsolute(core.Scenario1).Mean()
	result.PoolRevenueScenario2 = series.PoolAbsolute(core.Scenario2).Mean()
	result.HonestRevenueScenario2 = series.HonestAbsolute(core.Scenario2).Mean()
	for _, run := range series.Runs {
		result.RegularBlocks += run.RegularCount
		result.UncleBlocks += run.UncleCount
		result.StaleBlocks += run.StaleCount
	}
	return result, nil
}
