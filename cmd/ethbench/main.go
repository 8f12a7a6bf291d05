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
//	                 file (the BENCH_HISTORY.json trajectory), in addition
//	                 to the normal stdout output
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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/experiments"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
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
	return []benchmark{
		{name: "sim-100k-blocks", run: func(b *testing.B, parallel int) {
			// The headline tracking workload. Settlement streams, so
			// resident memory is O(uncle window) and bytes/op is the
			// Result plus the window-bounded engine state, not a
			// 100k-block tree.
			pop, err := mining.TwoAgent(0.35)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{
					Population: pop,
					Gamma:      0.5,
					Blocks:     100000,
					Seed:       uint64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "sim-1m-blocks", run: func(b *testing.B, parallel int) {
			// The long-horizon workload: a million blocks through one
			// reused Runner. Heap stays flat at O(uncle window); the
			// bench-smoke heap profile artifact is taken from this
			// workload.
			pop, err := mining.TwoAgent(0.35)
			if err != nil {
				b.Fatal(err)
			}
			rn := sim.NewRunner()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rn.Run(sim.Config{
					Population: pop,
					Gamma:      0.5,
					Blocks:     1000000,
					Seed:       uint64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "sim-100k-blocks-nodepth", run: func(b *testing.B, parallel int) {
			// The paper's Fig. 8 schedule: flat Ku = 1/2 at any
			// distance, which runs the engine at its widest reference
			// window (64). Uncle eligibility and the candidate purge
			// are the costly layers here, so this workload gates them.
			pop, err := mining.TwoAgent(0.35)
			if err != nil {
				b.Fatal(err)
			}
			schedule, err := rewards.Constant(0.5, rewards.NoDepthLimit)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{
					Population: pop,
					Gamma:      0.5,
					Schedule:   schedule,
					Blocks:     100000,
					Seed:       uint64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "sim-100k-blocks-1000-miners", run: func(b *testing.B, parallel int) {
			// The paper's actual Sec. V population (1000 equal
			// miners); alias-table sampling keeps it within a small
			// factor of the two-agent run above.
			pop, err := mining.Equal(1000, 350)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{
					Population: pop,
					Gamma:      0.5,
					Blocks:     100000,
					Seed:       uint64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "sim-100k-blocks-2pools", run: func(b *testing.B, parallel int) {
			// Two Algorithm-1 pools racing each other: the K-pool
			// engine's tracking workload. Per-event cost is O(K) on
			// top of the O(1) population sampling, so it must stay
			// within a small factor of the single-pool benchmarks.
			pop, err := mining.MultiAgent(0.25, 0.2)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{
					Population: pop,
					Gamma:      0.5,
					Blocks:     100000,
					Seed:       uint64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "sim-100k-blocks-2pools-stubborn", run: func(b *testing.B, parallel int) {
			// Two parametric pools from the registry racing each
			// other: the strategy-space engine's tracking workload.
			// Must stay allocation-free in steady state and within a
			// small factor of the Algorithm-1 2-pool bench.
			pop, err := mining.MultiAgent(0.25, 0.2)
			if err != nil {
				b.Fatal(err)
			}
			strategies, err := sim.NewStrategies([]sim.StrategySpec{
				sim.MustStrategySpec("stubborn:fork=1,lead=1"),
				sim.MustStrategySpec("stubborn:trail=2"),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{
					Population: pop,
					Gamma:      0.5,
					Blocks:     100000,
					Seed:       uint64(i),
					Strategies: strategies,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "sim-100k-blocks-2pools-table", run: func(b *testing.B, parallel int) {
			// The decision-table showcase: two deep-racing parametric
			// pools whose reactions all resolve inside the compiled table
			// window. Tables are warmed before timing, as the experiment
			// engine does before fanning a sweep out.
			pop, err := mining.MultiAgent(0.25, 0.2)
			if err != nil {
				b.Fatal(err)
			}
			strategies, err := sim.NewStrategies([]sim.StrategySpec{
				sim.MustStrategySpec("eager-publish:lead=3"),
				sim.MustStrategySpec("stubborn:lead=1,trail=2"),
			})
			if err != nil {
				b.Fatal(err)
			}
			sim.WarmDecisionTables(strategies)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{
					Population: pop,
					Gamma:      0.5,
					Blocks:     100000,
					Seed:       uint64(i),
					Strategies: strategies,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "sim-100k-blocks-eip100", run: func(b *testing.B, parallel int) {
			// The continuous-time engine with the difficulty feedback
			// loop closed: exponential inter-arrival sampling, per-block
			// timestamps, and per-settled-block EIP100 stepping. Must
			// stay allocation-free in steady state and within a small
			// factor of the timeless 100k bench.
			pop, err := mining.TwoAgent(0.35)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{
					Population: pop,
					Gamma:      0.5,
					Blocks:     100000,
					Seed:       uint64(i),
					Time: sim.TimeConfig{
						Enabled:    true,
						Difficulty: difficulty.Params{Rule: difficulty.EIP100},
					},
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "sim-100k-blocks-alpha05", run: func(b *testing.B, parallel int) {
			// The plain half of the fast-forward speedup pair: a small
			// attacker from the low end of the Fig. 8 sweep, where the race
			// spends nearly all of its events at the empty-branch origin —
			// exactly the regime the fast-forward collapses. The reused
			// Runner keeps both halves of the pair at steady state.
			pop, err := mining.TwoAgent(0.05)
			if err != nil {
				b.Fatal(err)
			}
			rn := sim.NewRunner()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rn.Run(sim.Config{
					Population: pop,
					Gamma:      0.5,
					Blocks:     100000,
					Seed:       uint64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "sim-100k-blocks-fastforward", run: func(b *testing.B, parallel int) {
			// The same workload with the analytic fast-forward engaged:
			// uneventful honest stretches collapse to one geometric draw
			// plus a bulk append. Gated against sim-100k-blocks-alpha05
			// in the CI baseline to keep the speedup honest.
			pop, err := mining.TwoAgent(0.05)
			if err != nil {
				b.Fatal(err)
			}
			rn := sim.NewRunner()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rn.Run(sim.Config{
					Population:  pop,
					Gamma:       0.5,
					Blocks:      100000,
					Seed:        uint64(i),
					FastForward: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "sim-100k-blocks-audit-sampled", run: func(b *testing.B, parallel int) {
			// The invariant auditor at its CI-friendly sampling rate.
			// The fork-child rescan and conservation settle make audited
			// events expensive, so sampling must amortize them to a
			// small overhead on top of the plain 100k bench (the audit
			// itself allocates; only the unaudited path is gated
			// allocation-free).
			pop, err := mining.TwoAgent(0.35)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{
					Population: pop,
					Gamma:      0.5,
					Blocks:     100000,
					Seed:       uint64(i),
					Audit:      sim.AuditConfig{Enabled: true, SampleEvery: 1024},
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "runmany-10x20k", run: func(b *testing.B, parallel int) {
			pop, err := mining.TwoAgent(0.35)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunMany(sim.Config{
					Population:  pop,
					Gamma:       0.5,
					Blocks:      20000,
					Seed:        uint64(i),
					Parallelism: parallel,
				}, 10); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "fig8-quick", run: func(b *testing.B, parallel int) {
			opts := experiments.Quick()
			opts.Parallelism = parallel
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig8(opts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "table2-quick", run: func(b *testing.B, parallel int) {
			opts := experiments.Quick()
			opts.Parallelism = parallel
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Table2(opts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "strategies-quick", run: func(b *testing.B, parallel int) {
			opts := experiments.Quick()
			opts.Parallelism = parallel
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Strategies(opts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "poolwars-quick", run: func(b *testing.B, parallel int) {
			opts := experiments.Quick()
			opts.Parallelism = parallel
			for i := 0; i < b.N; i++ {
				if _, err := experiments.PoolWars(opts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "profitability-quick", run: func(b *testing.B, parallel int) {
			// The (rule x gamma x alpha) profitability grid on the
			// engine-integrated difficulty loop.
			opts := experiments.Quick()
			opts.Parallelism = parallel
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Profitability(opts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "tournament-quick", run: func(b *testing.B, parallel int) {
			// The round-robin engine over registry specs; part of the
			// -baseline regression gate alongside the 2-pool sims.
			opts := experiments.Quick()
			opts.Parallelism = parallel
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Tournament(opts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "precision-plain-quick", run: precisionBench(experiments.EstimatorPlain)},
		{name: "precision-cv-quick", run: precisionBench(experiments.EstimatorControlVariate)},
		{name: "precision-antithetic-quick", run: precisionBench(experiments.EstimatorAntithetic)},
		{name: "poolwars-cache-cold", run: func(b *testing.B, parallel int) {
			// Cold path: a fresh cache every op, so ns/op carries the full
			// address/miss/store overhead on top of poolwars-quick — the
			// pair bounds what the cache costs when it never hits.
			opts := experiments.Quick()
			opts.Parallelism = parallel
			for i := 0; i < b.N; i++ {
				opts.Cache = resultcache.NewMemory(0)
				if _, err := experiments.PoolWars(opts); err != nil {
					b.Fatal(err)
				}
			}
		}},
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
	}
}

// precisionBench builds a time-to-target-precision workload: one op runs
// the adaptive precision study at a single alpha under one estimator until
// its confidence interval closes under the target half-width, so ns/op is
// the variance-adjusted cost of a fixed precision — lower for estimators
// with a real variance reduction.
func precisionBench(est experiments.Estimator) func(b *testing.B, parallel int) {
	return func(b *testing.B, parallel int) {
		opts := experiments.Options{Blocks: experiments.QuickBlocks, Parallelism: parallel}
		pc := experiments.PrecisionConfig{
			Alphas:       []float64{0.3},
			Estimators:   []experiments.Estimator{est},
			TargetRadius: 0.0015,
			MaxRuns:      64,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Precision(opts, pc); err != nil {
				b.Fatal(err)
			}
		}
	}
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
		bench := bench
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
// result set plus enough environment to compare rows honestly.
type historyEntry struct {
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version"`
	Results   []Result `json:"results"`
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
	history = append(history, historyEntry{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Results:   results,
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
