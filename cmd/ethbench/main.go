// Command ethbench runs the repository's performance-tracking workloads
// and emits machine-readable results, one JSON object per benchmark, as a
// single JSON array on stdout (the BENCH_*.json trajectory format).
//
// Usage:
//
//	ethbench [flags]
//
// Flags:
//
//	-filter S        run only benchmarks whose name contains S
//	-parallel N      experiment engine workers (default 0: one per CPU)
//	-list            print benchmark names and exit
//	-baseline FILE   compare against a saved JSON run instead of printing
//	                 JSON: print per-benchmark deltas (ns/op, bytes/op,
//	                 allocs/op) and exit non-zero on a >20% regression in
//	                 any of the three
//	-record FILE     append this run as a dated entry to a JSON history
//	                 file (the BENCH_HISTORY.json trajectory), stamped with
//	                 the Go version, the machine's CPU count, GOMAXPROCS
//	                 and CPU model, and the git revision the binary was
//	                 built from (when built with -buildvcs=true), in
//	                 addition to the normal stdout output
//	-cpuprofile FILE write a CPU profile covering the benchmark runs
//	-memprofile FILE write a heap profile taken after the benchmark runs
//
// Each result records iterations, ns/op, bytes/op and allocs/op as measured
// by testing.Benchmark, plus the parallelism and GOMAXPROCS in force, so
// trajectories from different machines stay comparable. The precision-*
// benchmarks report time-to-target-precision: one op is an adaptive study
// that simulates until the pool-revenue confidence interval closes under
// its target half-width, so their ns/op is directly the wall-clock cost of
// a fixed statistical precision under each estimator.
//
// The registry here is the one place a tracked workload is defined (layer
// benchmarks stay beside their packages); `go test -bench=. ./cmd/ethbench`
// runs it as sub-benchmarks of BenchmarkWorkloads, at one engine worker
// per CPU.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/ethselfish/ethselfish"
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/experiments"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/table"
)

// Result is one benchmark measurement in the emitted JSON array.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Parallelism int     `json:"parallelism"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
}

// benchmark couples a name to a workload parameterized by the engine's
// parallelism.
type benchmark struct {
	name string
	run  func(b *testing.B, parallel int)
}

func benchmarks() []benchmark {
	quick := experiments.Quick()
	return []benchmark{
		// The headline tracking workload. Settlement streams, so resident
		// memory is O(uncle window) and bytes/op is the Result plus the
		// window-bounded engine state, not a 100k-block tree.
		{name: "sim-100k-blocks", run: simBench(freshRun, func() (sim.Config, error) {
			pop, err := mining.TwoAgent(0.35)
			return sim.Config{Population: pop, Gamma: 0.5, Blocks: 100000}, err
		})},
		// The long-horizon workload: a million blocks through one reused
		// Runner. Heap stays flat at O(uncle window); `make bench-smoke`
		// takes its longhorizon-heap.pprof artifact from this workload
		// (BenchmarkWorkloads/sim-1m-blocks).
		{name: "sim-1m-blocks", run: simBench(reuseRunner, func() (sim.Config, error) {
			pop, err := mining.TwoAgent(0.35)
			return sim.Config{Population: pop, Gamma: 0.5, Blocks: 1000000}, err
		})},
		// The paper's Fig. 8 schedule: flat Ku = 1/2 at any distance, which
		// runs the engine at its widest reference window (64). Uncle
		// eligibility and the candidate purge are the costly layers here,
		// so this workload gates them.
		{name: "sim-100k-blocks-nodepth", run: simBench(freshRun, func() (sim.Config, error) {
			pop, err := mining.TwoAgent(0.35)
			if err != nil {
				return sim.Config{}, err
			}
			schedule, err := rewards.Constant(0.5, rewards.NoDepthLimit)
			return sim.Config{Population: pop, Gamma: 0.5, Schedule: schedule, Blocks: 100000}, err
		})},
		// The paper's actual Sec. V population (1000 equal miners);
		// alias-table sampling keeps it within a small factor of the
		// two-agent run above.
		{name: "sim-100k-blocks-1000-miners", run: simBench(freshRun, func() (sim.Config, error) {
			pop, err := mining.Equal(1000, 350)
			return sim.Config{Population: pop, Gamma: 0.5, Blocks: 100000}, err
		})},
		// Two Algorithm-1 pools racing each other: the K-pool engine's
		// tracking workload. Per-event cost is O(K) on top of the O(1)
		// population sampling, so it must stay within a small factor of
		// the single-pool benchmarks.
		{name: "sim-100k-blocks-2pools", run: simBench(freshRun, func() (sim.Config, error) {
			pop, err := mining.MultiAgent(0.25, 0.2)
			return sim.Config{Population: pop, Gamma: 0.5, Blocks: 100000}, err
		})},
		// Two equal Algorithm-1 pools at 0.33 each, the top row of the
		// paper-scale tournament: their public forks race side by side for
		// hundreds of heights above a consensus floor that stays put, so
		// this workload gates the O(log race depth) floor recompute.
		{name: "sim-100k-blocks-2pools-deepfork", run: simBench(freshRun, func() (sim.Config, error) {
			pop, err := mining.MultiAgent(0.33, 0.33)
			return sim.Config{Population: pop, Gamma: 0.5, Blocks: 100000}, err
		})},
		// Two parametric pools from the registry racing each other: the
		// strategy-space engine's tracking workload. Must stay
		// allocation-free in steady state and within a small factor of the
		// Algorithm-1 2-pool bench.
		{name: "sim-100k-blocks-2pools-stubborn", run: simBench(freshRun, func() (sim.Config, error) {
			return twoPools("stubborn:fork=1,lead=1", "stubborn:trail=2")
		})},
		// The decision-table showcase: two deep-racing parametric pools
		// whose reactions all resolve inside the compiled table window.
		// Tables are warmed before timing, as the experiment engine does
		// before fanning a sweep out.
		{name: "sim-100k-blocks-2pools-table", run: simBench(freshRun, func() (sim.Config, error) {
			cfg, err := twoPools("eager-publish:lead=3", "stubborn:lead=1,trail=2")
			if err == nil {
				sim.WarmDecisionTables(cfg.Strategies)
			}
			return cfg, err
		})},
		// The continuous-time engine with the difficulty feedback loop
		// closed: exponential inter-arrival sampling, per-block timestamps,
		// and per-settled-block EIP100 stepping. Must stay allocation-free
		// in steady state and within a small factor of the timeless 100k
		// bench.
		{name: "sim-100k-blocks-eip100", run: simBench(freshRun, func() (sim.Config, error) {
			pop, err := mining.TwoAgent(0.35)
			return sim.Config{
				Population: pop,
				Gamma:      0.5,
				Blocks:     100000,
				Time: sim.TimeConfig{
					Enabled:    true,
					Difficulty: difficulty.Params{Rule: difficulty.EIP100},
				},
			}, err
		})},
		// The plain loop's race-origin fast path at low alpha: a small
		// attacker from the low end of the Fig. 8 sweep, where the race
		// spends nearly all of its events at the empty-branch origin, so
		// almost every honest event takes the fast path. The reused Runner
		// keeps the workload at steady state.
		{name: "sim-100k-blocks-alpha05", run: simBench(reuseRunner, func() (sim.Config, error) {
			pop, err := mining.TwoAgent(0.05)
			return sim.Config{Population: pop, Gamma: 0.5, Blocks: 100000}, err
		})},
		// The invariant auditor at its CI-friendly sampling rate. The
		// fork-child rescan and conservation settle make audited events
		// expensive, so sampling must amortize them to a small overhead on
		// top of the plain 100k bench (the audit itself allocates; only the
		// unaudited path is gated allocation-free).
		{name: "sim-100k-blocks-audit-sampled", run: simBench(freshRun, func() (sim.Config, error) {
			pop, err := mining.TwoAgent(0.35)
			return sim.Config{
				Population: pop,
				Gamma:      0.5,
				Blocks:     100000,
				Audit:      sim.AuditConfig{Enabled: true, SampleEvery: 1024},
			}, err
		})},
		// sim.RunMany fans its runs over GOMAXPROCS; -parallel sets only
		// the experiment engine's workers.
		{name: "runmany-10x20k", run: func(b *testing.B, _ int) {
			pop, err := mining.TwoAgent(0.35)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunMany(sim.Config{
					Population: pop,
					Gamma:      0.5,
					Blocks:     20000,
					Seed:       uint64(i),
				}, 10); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "fig8-quick", run: driverBench(quick, experiments.Fig8)},
		{name: "table2-quick", run: driverBench(quick, experiments.Table2)},
		{name: "strategies-quick", run: driverBench(quick, func(o experiments.Options) (experiments.StrategiesResult, error) {
			return experiments.Strategies(o)
		})},
		{name: "poolwars-quick", run: driverBench(quick, experiments.PoolWars)},
		// The (rule x gamma x alpha) profitability grid on the
		// engine-integrated difficulty loop.
		{name: "profitability-quick", run: driverBench(quick, func(o experiments.Options) (experiments.ProfitabilityResult, error) {
			return experiments.Profitability(o)
		})},
		// The round-robin engine over registry specs; part of the -baseline
		// regression gate alongside the 2-pool sims.
		{name: "tournament-quick", run: driverBench(quick, func(o experiments.Options) (experiments.TournamentResult, error) {
			return experiments.Tournament(o)
		})},
		{name: "precision-plain-quick", run: precisionBench(experiments.EstimatorPlain)},
		{name: "precision-cv-quick", run: precisionBench(experiments.EstimatorControlVariate)},
		{name: "precision-antithetic-quick", run: precisionBench(experiments.EstimatorAntithetic)},
		// Cold path: a fresh cache every op, so ns/op carries the full
		// address/miss/store overhead on top of poolwars-quick — the pair
		// bounds what the cache costs when it never hits.
		{name: "poolwars-cache-cold", run: driverBench(quick, func(o experiments.Options) (experiments.PoolWarsResult, error) {
			o.Cache = resultcache.NewMemory(0)
			return experiments.PoolWars(o)
		})},
		{name: "poolwars-cache-warm", run: func(b *testing.B, parallel int) {
			// Warm path: one prewarmed cache serves every op, so ns/op is
			// the cost of a fully cached sweep — the speedup over
			// poolwars-quick is the cache's headline.
			opts := experiments.Quick()
			opts.Parallelism = parallel
			opts.Cache = resultcache.NewMemory(0)
			if _, err := experiments.PoolWars(opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.PoolWars(opts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The analytic paper artifacts: closed-form drivers that take only
		// the engine parallelism from their options.
		{name: "fig9", run: driverBench(experiments.Options{}, experiments.Fig9)},
		{name: "fig10", run: driverBench(experiments.Options{}, experiments.Fig10)},
		{name: "secvi", run: driverBench(experiments.Options{}, experiments.SecVI)},
		{name: "fig7-dump", run: driverBench(experiments.Options{}, func(o experiments.Options) (*table.Table, error) {
			return experiments.Fig7(0.3, 0.5, 8, o)
		})},
		{name: "diffablation-quick", run: driverBench(quick, experiments.DiffAblation)},
		// One run per point keeps the full (gamma x alpha x candidate) grid
		// affordable as a tracked workload.
		{name: "bestresponse-1x4k", run: driverBench(experiments.Options{Runs: 1, Blocks: 4000}, experiments.BestResponse)},
		// Building blocks of the closed-form model; they ignore the options.
		{name: "closedform-revenue", run: func(b *testing.B, _ int) {
			m, err := core.New(core.Params{Alpha: 0.35, Gamma: 0.5})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.Revenue().PoolStatic <= 0 {
					b.Fatal("degenerate revenue")
				}
			}
		}},
		{name: "stationary-numeric-lead80", run: driverBench(experiments.Options{}, func(experiments.Options) (*core.NumericModel, error) {
			return core.NewNumeric(core.Params{Alpha: 0.35, Gamma: 0.5, MaxLead: 80})
		})},
		{name: "threshold-search", run: driverBench(experiments.Options{}, func(experiments.Options) (float64, error) {
			return core.Threshold(core.ThresholdParams{Gamma: 0.5})
		})},
		{name: "analyze-facade", run: driverBench(experiments.Options{}, func(experiments.Options) (ethselfish.Revenue, error) {
			a, err := ethselfish.Analyze(0.3, 0.5)
			if err != nil {
				return ethselfish.Revenue{}, err
			}
			return a.Revenue(), nil
		})},
	}
}

// How a simBench workload executes its ops: a fresh sim.Run each, or one
// Runner reused across them (the engine at steady state).
const (
	freshRun    = false
	reuseRunner = true
)

// simBench times one simulation per op of the config setup builds, seeded
// with the op index. Setup runs before the timer starts.
func simBench(reuse bool, setup func() (sim.Config, error)) func(*testing.B, int) {
	return func(b *testing.B, _ int) {
		cfg, err := setup()
		if err != nil {
			b.Fatal(err)
		}
		run := sim.Run
		if reuse {
			run = sim.NewRunner().Run
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i)
			if _, err := run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// twoPools is the 2-pool race (pools of 0.25 and 0.2 at gamma 0.5 over
// 100k blocks) with each pool running the given registry spec.
func twoPools(spec1, spec2 string) (sim.Config, error) {
	pop, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		return sim.Config{}, err
	}
	strategies, err := sim.NewStrategies([]sim.StrategySpec{
		sim.MustStrategySpec(spec1),
		sim.MustStrategySpec(spec2),
	})
	return sim.Config{Population: pop, Gamma: 0.5, Blocks: 100000, Strategies: strategies}, err
}

// driverBench times one call of driver per op under opts at the engine
// parallelism ethbench was given; analytic drivers use nothing else.
func driverBench[R any](opts experiments.Options, driver func(experiments.Options) (R, error)) func(*testing.B, int) {
	return func(b *testing.B, parallel int) {
		o := opts
		o.Parallelism = parallel
		for i := 0; i < b.N; i++ {
			if _, err := driver(o); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// precisionBench builds a time-to-target-precision workload: one op runs
// the adaptive precision study at a single alpha under one estimator until
// its confidence interval closes under the target half-width, so ns/op is
// the variance-adjusted cost of a fixed precision — lower for estimators
// with a real variance reduction.
func precisionBench(est experiments.Estimator) func(b *testing.B, parallel int) {
	pc := experiments.PrecisionConfig{
		Alphas:       []float64{0.3},
		Estimators:   []experiments.Estimator{est},
		TargetRadius: 0.0015,
		MaxRuns:      64,
	}
	return driverBench(experiments.Options{Blocks: experiments.QuickBlocks}, func(o experiments.Options) (experiments.PrecisionResult, error) {
		return experiments.Precision(o, pc)
	})
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ethbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ethbench", flag.ContinueOnError)
	var (
		filter     = fs.String("filter", "", "run only benchmarks whose name contains this substring")
		parallel   = fs.Int("parallel", 0, "experiment engine workers (0: one per CPU)")
		list       = fs.Bool("list", false, "print benchmark names and exit")
		baseline   = fs.String("baseline", "", "compare against this saved JSON run and fail on >20% regression")
		record     = fs.String("record", "", "append this run as a dated entry to this JSON history file")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
		memprofile = fs.String("memprofile", "", "write a post-run heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("creating CPU profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ethbench: creating heap profile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ethbench: writing heap profile:", err)
			}
		}()
	}

	var results []Result
	for _, bench := range benchmarks() {
		if !strings.Contains(bench.name, *filter) {
			continue
		}
		if *list {
			if _, err := fmt.Fprintln(w, bench.name); err != nil {
				return err
			}
			continue
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bench.run(b, *parallel)
		})
		if r.N == 0 {
			return fmt.Errorf("benchmark %s failed", bench.name)
		}
		// A zero -parallel flag means one worker per CPU; record the
		// resolved count so history entries from different machines (and
		// flag spellings of the same setup) stay comparable.
		parallelism := *parallel
		if parallelism == 0 {
			parallelism = runtime.GOMAXPROCS(0)
		}
		results = append(results, Result{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Parallelism: parallelism,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
		})
	}
	if *list {
		return nil
	}
	if results == nil {
		return fmt.Errorf("no benchmark matches filter %q", *filter)
	}
	if *record != "" {
		if err := appendHistory(*record, results); err != nil {
			return err
		}
	}
	if *baseline != "" {
		return compareBaseline(w, *baseline, results)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// historyEntry is one dated run in the benchmark history file: the full
// result set plus enough environment to compare rows honestly. The machine
// fingerprint (CPU count, GOMAXPROCS, CPU model) tells a new host from a
// regression, and the git revision names the code measured; entries
// recorded before these existed simply lack the fields.
type historyEntry struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GitRev     string   `json:"git_rev,omitempty"`
	NProc      int      `json:"nproc,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	CPUModel   string   `json:"cpu_model,omitempty"`
	Results    []Result `json:"results"`
}

// gitRevision returns the VCS revision stamped into a build, suffixed with
// "-dirty" when the working tree had uncommitted changes, or "" when the
// build carries no VCS settings (a plain `go run`, or a build outside a
// repository).
func gitRevision(info *debug.BuildInfo) string {
	var rev string
	var dirty bool
	for _, setting := range info.Settings {
		switch setting.Key {
		case "vcs.revision":
			rev = setting.Value
		case "vcs.modified":
			dirty = setting.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "-dirty"
	}
	return rev
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "" where
// the file or the field is absent (non-Linux hosts, some ARM kernels).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if key, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return ""
}

// appendHistory appends this run as a dated entry to the JSON history at
// path (an array of entries, created on first use). The file is rewritten
// whole — history files are small and the rewrite keeps them valid JSON
// rather than a fragile append format.
func appendHistory(path string, results []Result) error {
	var history []historyEntry
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &history); err != nil {
			return fmt.Errorf("parsing history %s: %w", path, err)
		}
	case os.IsNotExist(err):
	default:
		return fmt.Errorf("reading history: %w", err)
	}
	var rev string
	if info, ok := debug.ReadBuildInfo(); ok {
		rev = gitRevision(info)
	}
	history = append(history, historyEntry{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GitRev:     rev,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Results:    results,
	})
	out, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding history: %w", err)
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// regressionLimit is the tolerated relative increase in ns/op, bytes/op, or
// allocs/op before the compare mode fails.
const regressionLimit = 0.20

// compareBaseline prints per-benchmark deltas against a saved JSON run and
// returns an error (non-zero exit) if any shared benchmark regressed by
// more than regressionLimit in ns/op, bytes/op, or allocs/op. Gating memory
// alongside time keeps the streaming-settlement footprint honest: a change
// that quietly re-grows per-op allocations fails here even when ns/op holds.
func compareBaseline(w io.Writer, path string, results []Result) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base []Result
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseByName := make(map[string]Result, len(base))
	for _, r := range base {
		baseByName[r.Name] = r
	}

	var regressions []string
	fmt.Fprintf(w, "%-32s %14s %14s %8s %12s %12s %8s %10s %10s %8s\n",
		"benchmark", "ns/op(base)", "ns/op(new)", "delta", "bytes(b)", "bytes(n)", "delta", "allocs(b)", "allocs(n)", "delta")
	for _, r := range results {
		b, ok := baseByName[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-32s %14s %14.0f %8s %12s %12d %8s %10s %10d %8s\n",
				r.Name, "-", r.NsPerOp, "new", "-", r.BytesPerOp, "new", "-", r.AllocsPerOp, "new")
			continue
		}
		nsDelta := relativeDelta(b.NsPerOp, r.NsPerOp)
		bytesDelta := relativeDelta(float64(b.BytesPerOp), float64(r.BytesPerOp))
		allocDelta := relativeDelta(float64(b.AllocsPerOp), float64(r.AllocsPerOp))
		fmt.Fprintf(w, "%-32s %14.0f %14.0f %+7.1f%% %12d %12d %+7.1f%% %10d %10d %+7.1f%%\n",
			r.Name, b.NsPerOp, r.NsPerOp, 100*nsDelta,
			b.BytesPerOp, r.BytesPerOp, 100*bytesDelta,
			b.AllocsPerOp, r.AllocsPerOp, 100*allocDelta)
		if nsDelta > regressionLimit {
			regressions = append(regressions,
				fmt.Sprintf("%s: ns/op %+.1f%%", r.Name, 100*nsDelta))
		}
		if bytesDelta > regressionLimit {
			regressions = append(regressions,
				fmt.Sprintf("%s: bytes/op %+.1f%%", r.Name, 100*bytesDelta))
		}
		if allocDelta > regressionLimit {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %+.1f%%", r.Name, 100*allocDelta))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("regressions over %.0f%%: %s",
			100*regressionLimit, strings.Join(regressions, "; "))
	}
	return nil
}

// relativeDelta returns (new-base)/base, treating a zero base as no change
// unless the new value is positive (then it is an unbounded regression only
// if the metric grew, reported as +100%).
func relativeDelta(base, new float64) float64 {
	if base == 0 {
		if new == 0 {
			return 0
		}
		return 1
	}
	return (new - base) / base
}
