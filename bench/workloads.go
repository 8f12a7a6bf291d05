package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/experiments"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// size scales a workload. The benchmark measures the paper sizes; tests pass
// reduced ones.
type size struct {
	// Runs is the run count per grid point of a timed repetition, Blocks
	// the block events per run.
	Runs, Blocks int

	// FixtureRuns, when positive, is the run count of an earlier sweep
	// whose journal every repetition starts from: the warm -cachedir a user
	// extends by raising -runs. Zero starts every repetition from an empty
	// cache directory.
	FixtureRuns int

	// Draws is the number of calls each rng and mining probe times.
	Draws int
}

// outcome is what a product repetition delivered.
type outcome struct {
	table    string   // the driver's rendered result table
	failures []string // output checks that failed
}

// workload is one set of inputs the benchmark runs through a product driver.
// Why each was chosen is recorded in BENCHMARK.json and README.md.
type workload struct {
	name  string
	paper size

	// grid rebuilds the driver's grid: one config per grid point, in the
	// driver's order, with every public field the driver sets. The traced
	// run sends these rows through the layers itself (the replica); the
	// replica test pins them to the driver's journal.
	grid func(blocks int) ([]sim.Config, error)

	// drive runs the product driver and checks its output against the
	// workload's oracles.
	drive func(opts experiments.Options) (outcome, error)
}

// The grids below restate the drivers' unexported sweep constants. A drift
// between the two shows as replica mismatches, which fail the traced run and
// the replica test.
const (
	paperGamma = 0.5 // Fig. 8, tournament and best-response gamma
	paperKu    = 0.5 // Fig. 8's flat uncle reward, 4/8 of a block
)

// fig8Alphas is Fig. 8's alpha sweep, computed as the drivers compute it.
func fig8Alphas() []float64 {
	const start, stop, step = 0.025, 0.45, 0.025
	n := 1 + int(math.Floor((stop-start)/step+1e-9))
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

var workloads = []*workload{
	{
		name:  "fig8-paper",
		paper: size{Runs: 10, Blocks: 100_000, Draws: 10_000_000},
		grid:  fig8Grid,
		drive: driveFig8,
	},
	{
		name:  "tournament-paper",
		paper: size{Runs: 10, Blocks: 100_000, Draws: 10_000_000},
		grid:  tournamentGrid,
		drive: driveTournament,
	},
	{
		name:  "profitability-1m",
		paper: size{Runs: 2, Blocks: 1_000_000, Draws: 10_000_000},
		grid:  profitabilityGrid,
		drive: driveProfitability,
	},
	{
		name:  "bestresponse-extend",
		paper: size{Runs: 10, Blocks: 3000, FixtureRuns: 8, Draws: 10_000_000},
		grid:  bestResponseGrid,
		drive: driveBestResponse,
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func fig8Schedule() (rewards.Schedule, error) {
	return rewards.Constant(paperKu, rewards.NoDepthLimit)
}

func fig8Grid(blocks int) ([]sim.Config, error) {
	schedule, err := fig8Schedule()
	if err != nil {
		return nil, err
	}
	var cfgs []sim.Config
	for _, alpha := range fig8Alphas() {
		pop, err := mining.TwoAgent(alpha)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, sim.Config{Population: pop, Gamma: paperGamma, Schedule: schedule, Blocks: blocks})
	}
	return cfgs, nil
}

func tournamentGrid(blocks int) ([]sim.Config, error) {
	specs := []string{"honest", "algorithm1", "stubborn:lead=1", "stubborn:trail=1"}
	var cfgs []sim.Config
	for a := range specs {
		for b := a; b < len(specs); b++ {
			for _, alpha := range []float64{0.15, 0.25, 0.33} {
				pop, err := mining.MultiAgent(alpha, alpha)
				if err != nil {
					return nil, err
				}
				strategies, err := parseStrategies(specs[a], specs[b])
				if err != nil {
					return nil, err
				}
				cfgs = append(cfgs, sim.Config{Population: pop, Gamma: paperGamma, Strategies: strategies, Blocks: blocks})
			}
		}
	}
	return cfgs, nil
}

func profitabilityGrid(blocks int) ([]sim.Config, error) {
	var cfgs []sim.Config
	for _, rule := range difficulty.Rules() {
		for _, gamma := range []float64{0, 0.5, 1} {
			for _, alpha := range []float64{0.20, 0.25, 1.0 / 3, 0.40} {
				pop, err := mining.TwoAgent(alpha)
				if err != nil {
					return nil, err
				}
				cfgs = append(cfgs, sim.Config{
					Population: pop,
					Gamma:      gamma,
					Blocks:     blocks,
					Time:       sim.TimeConfig{Enabled: true, Difficulty: difficulty.Params{Rule: rule}},
				})
			}
		}
	}
	return cfgs, nil
}

// bestResponseSpecs is the searched strategy space: algorithm1, then every
// stubborn combination of lead, fork and trail with at least one axis on.
func bestResponseSpecs() []string {
	specs := []string{"algorithm1"}
	for lead := 0; lead <= 1; lead++ {
		for fork := 0; fork <= 1; fork++ {
			for trail := 0; trail <= 2; trail++ {
				if lead+fork+trail == 0 {
					continue
				}
				spec := sim.StrategySpec{Name: "stubborn", Params: map[string]int{}}
				for key, v := range map[string]int{"lead": lead, "fork": fork, "trail": trail} {
					if v != 0 {
						spec.Params[key] = v
					}
				}
				specs = append(specs, spec.String())
			}
		}
	}
	return specs
}

func bestResponseGrid(blocks int) ([]sim.Config, error) {
	schedule, err := fig8Schedule()
	if err != nil {
		return nil, err
	}
	var cfgs []sim.Config
	for _, gamma := range []float64{0, 0.5, 1} {
		for _, alpha := range fig8Alphas() {
			pop, err := mining.TwoAgent(alpha)
			if err != nil {
				return nil, err
			}
			for _, spec := range bestResponseSpecs() {
				strategies, err := parseStrategies(spec)
				if err != nil {
					return nil, err
				}
				cfgs = append(cfgs, sim.Config{Population: pop, Gamma: gamma, Schedule: schedule, Strategies: strategies, Blocks: blocks})
			}
		}
	}
	return cfgs, nil
}

func parseStrategies(specs ...string) ([]sim.Strategy, error) {
	out := make([]sim.Strategy, len(specs))
	for i, s := range specs {
		st, err := sim.ParseStrategy(s)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// strategiesOf lists the distinct strategies a grid runs, resolving an unset
// assignment to the simulator's default, Algorithm 1.
func strategiesOf(cfgs []sim.Config) []sim.Strategy {
	var out []sim.Strategy
	seen := make(map[string]bool)
	for _, cfg := range cfgs {
		list := cfg.Strategies
		if list == nil {
			list = []sim.Strategy{sim.Algorithm1{}}
		}
		for _, st := range list {
			if !seen[st.Name()] {
				seen[st.Name()] = true
				out = append(out, st)
			}
		}
	}
	return out
}

func driveFig8(opts experiments.Options) (outcome, error) {
	r, err := experiments.Fig8(opts)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	if thr := r.Threshold(); math.Abs(thr-0.175) > 1e-9 {
		out.fail("fig8: threshold %v, want 0.175", thr)
	}
	for _, row := range r.Rows {
		if gap := math.Abs(row.PoolSim - row.PoolAnalytic); gap > 0.01 {
			out.fail("fig8: alpha %.3f: |pool sim - analytic| = %.4f > 0.01", row.Alpha, gap)
		}
	}
	out.table = r.Table().String()
	return out, nil
}

func driveTournament(opts experiments.Options) (outcome, error) {
	r, err := experiments.Tournament(opts)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	honest := -1
	for i, name := range r.Names {
		if name == "honest" {
			honest = i
		}
	}
	if honest < 0 {
		out.fail("tournament: no honest entrant")
	} else {
		for i, name := range r.Names {
			if i != honest && r.Score(i) <= r.Score(honest) {
				out.fail("tournament: %s scores %.4f, not above honest's %.4f", name, r.Score(i), r.Score(honest))
			}
		}
	}
	for _, m := range r.Matches {
		if !(m.StaleFraction >= 0 && m.StaleFraction < 1) {
			out.fail("tournament: %s vs %s at %.2f: stale fraction %v outside [0, 1)", m.SpecA, m.SpecB, m.Alpha, m.StaleFraction)
		}
	}
	out.table = r.Table().String()
	return out, nil
}

// driveProfitability checks the steady-state anchors the profitability
// driver's own crossover test pins.
func driveProfitability(opts experiments.Options) (outcome, error) {
	r, err := experiments.Profitability(opts)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	row := func(rule difficulty.Rule, alpha float64) experiments.ProfitabilityRow {
		got, ok := r.Row(rule, 0.5, alpha)
		if !ok {
			out.fail("profitability: no %s row at gamma 0.5, alpha %.3f", rule, alpha)
		}
		return got
	}
	for _, x := range r.Rows {
		if x.Rule == difficulty.Static && x.Retargeted() {
			out.fail("profitability: static row gamma %v alpha %.3f retargeted to %v", x.Gamma, x.Alpha, x.FinalDifficulty)
		}
	}
	if btc := row(difficulty.BitcoinStyle, 1.0/3); btc.SteadyRate < 1.0/3+0.05 || btc.FinalDifficulty >= 1 {
		out.fail("profitability: bitcoin-style alpha 1/3: steady %.4f (want >= %.4f), final difficulty %.4f (want < 1)",
			btc.SteadyRate, 1.0/3+0.05, btc.FinalDifficulty)
	}
	if eip := row(difficulty.EIP100, 0.20); eip.ProfitableSteady() {
		out.fail("profitability: eip100 alpha 0.20 pays in the steady state (%.4f)", eip.SteadyRate)
	}
	if eip := row(difficulty.EIP100, 0.40); !eip.ProfitableSteady() {
		out.fail("profitability: eip100 alpha 0.40 does not pay in the steady state (%.4f)", eip.SteadyRate)
	}
	for _, alpha := range []float64{0.20, 0.25, 1.0 / 3, 0.40} {
		if static, btc := row(difficulty.Static, alpha), row(difficulty.BitcoinStyle, alpha); static.SteadyRate >= btc.SteadyRate {
			out.fail("profitability: alpha %.3f: static steady %.4f does not trail bitcoin-style's %.4f",
				alpha, static.SteadyRate, btc.SteadyRate)
		}
	}
	out.table = r.Table().String()
	return out, nil
}

// driveBestResponse has no oracle of its own: its table is compared with a
// cache-less reference computed by the fixture.
func driveBestResponse(opts experiments.Options) (outcome, error) {
	r, err := experiments.BestResponse(opts)
	if err != nil {
		return outcome{}, err
	}
	return outcome{table: r.Table().String()}, nil
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// options returns the product options of one repetition.
func options(sz size, seed uint64) experiments.Options {
	return experiments.Options{Runs: sz.Runs, Blocks: sz.Blocks, Seed: seed, Parallelism: runtime.NumCPU()}
}

// setUp builds the workload's grid and compiles its decision tables, the
// one-time work a process pays before its first sweep.
func setUp(w *workload, sz size) ([]sim.Config, error) {
	cfgs, err := w.grid(sz.Blocks)
	if err != nil {
		return nil, err
	}
	sim.WarmDecisionTables(strategiesOf(cfgs))
	return cfgs, nil
}

// repetition runs one product sweep against the cache in dir: open, drive,
// close — what one CLI invocation with -cachedir does.
func repetition(w *workload, dir string, opts experiments.Options) (outcome, error) {
	cache, err := resultcache.Open(dir, 0)
	if err != nil {
		return outcome{}, err
	}
	opts.Cache = cache
	out, err := w.drive(opts)
	if cerr := cache.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing cache: %w", cerr)
	}
	return out, err
}

// Fixture layout inside a run's work directory.
const (
	fixtureCache     = "fixture"
	fixtureReference = "reference.txt"
)

// writeFixture journals the workload's earlier sweep (FixtureRuns runs per
// point) into work/fixture and renders a cache-less reference of the timed
// sweep into work/reference.txt.
func writeFixture(w *workload, sz size, seed uint64, work string) error {
	opts := options(sz, seed)
	opts.Runs = sz.FixtureRuns
	if _, err := repetition(w, filepath.Join(work, fixtureCache), opts); err != nil {
		return fmt.Errorf("fixture sweep: %w", err)
	}
	ref, err := w.drive(options(sz, seed))
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	return os.WriteFile(filepath.Join(work, fixtureReference), []byte(ref.table), 0o644)
}

// freshCache prepares dst as a repetition's cache directory: a copy of the
// fixture journal when the workload has one, empty otherwise.
func freshCache(sz size, work, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	if sz.FixtureRuns == 0 {
		return nil
	}
	src := filepath.Join(work, fixtureCache)
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// checkReference compares a repetition's table with the fixture's cache-less
// reference: a cache hit must equal recomputation.
func checkReference(sz size, work string, out *outcome) error {
	if sz.FixtureRuns == 0 {
		return nil
	}
	ref, err := os.ReadFile(filepath.Join(work, fixtureReference))
	if err != nil {
		return err
	}
	if out.table != string(ref) {
		out.fail("table differs from the cache-less reference")
	}
	return nil
}
