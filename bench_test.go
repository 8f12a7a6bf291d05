package ethselfish

import (
	"testing"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/experiments"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// One benchmark per paper artifact. Each regenerates the table or figure at
// reduced simulation effort (experiments.Quick), so `go test -bench=.`
// exercises every experiment end to end; the cmd/ethselfish harness runs
// them at paper scale.

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		result, err := experiments.Fig8(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if threshold := result.Threshold(); threshold < 0.1 || threshold > 0.2 {
			b.Fatalf("threshold %v out of expected band", threshold)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		result, err := experiments.Fig9(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if result.MaxTotal() < 1.3 {
			b.Fatalf("max total %v below the paper's ~1.35", result.MaxTotal())
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		result, err := experiments.Fig10(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(result.Rows) != 21 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		result, err := experiments.Table2(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if len(result.Columns) != 2 {
			b.Fatal("unexpected column count")
		}
	}
}

func BenchmarkSecVIThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SecVI(experiments.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7ChainDump(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(0.3, 0.5, 8, experiments.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDifficultyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DiffAblation(experiments.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		result, err := experiments.Strategies(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if len(result.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// Micro-benchmarks for the building blocks.

func BenchmarkClosedFormRevenue(b *testing.B) {
	b.ReportAllocs()
	m, err := core.New(core.Params{Alpha: 0.35, Gamma: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev := m.Revenue()
		if rev.PoolStatic <= 0 {
			b.Fatal("degenerate revenue")
		}
	}
}

func BenchmarkStationaryDistributionNumeric(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewNumeric(core.Params{Alpha: 0.35, Gamma: 0.5, MaxLead: 80}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThresholdSearch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Threshold(core.ThresholdParams{Gamma: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulator100kBlocks(b *testing.B) {
	// Settlement streams: the settled prefix is folded into dense tallies
	// as the consensus floor advances and evicted from the tree, so
	// bytes/op is bounded by the uncle window, not the run length.
	b.ReportAllocs()
	pop, err := mining.TwoAgent(0.35)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		result, err := sim.Run(sim.Config{
			Population: pop,
			Gamma:      0.5,
			Blocks:     100000,
			Seed:       uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if result.RegularCount == 0 {
			b.Fatal("no settled blocks")
		}
	}
	b.ReportMetric(100000, "blocks/op")
}

func BenchmarkSimulator1MBlocks(b *testing.B) {
	// The long-horizon workload: a million blocks through one reused
	// Runner — flat O(window) memory for the whole run.
	b.ReportAllocs()
	pop, err := mining.TwoAgent(0.35)
	if err != nil {
		b.Fatal(err)
	}
	rn := sim.NewRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		result, err := rn.Run(sim.Config{
			Population: pop,
			Gamma:      0.5,
			Blocks:     1000000,
			Seed:       uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if result.RegularCount == 0 {
			b.Fatal("no settled blocks")
		}
	}
	b.ReportMetric(1000000, "blocks/op")
}

func BenchmarkSimulator100kBlocksNoDepthLimit(b *testing.B) {
	// The paper's Fig. 8 schedule (flat Ku = 1/2 at any distance) runs the
	// engine at its widest reference window, where uncle eligibility and
	// the candidate purge are the costly layers.
	b.ReportAllocs()
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
		result, err := sim.Run(sim.Config{
			Population: pop,
			Gamma:      0.5,
			Schedule:   schedule,
			Blocks:     100000,
			Seed:       uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if result.RegularCount == 0 {
			b.Fatal("no settled blocks")
		}
	}
	b.ReportMetric(100000, "blocks/op")
}

func BenchmarkSimulator100kBlocks1000Miners(b *testing.B) {
	// The paper's actual Sec. V population: 1000 equal miners, 350 selfish.
	// Per-event cost must stay independent of the population size (alias-
	// table sampling), so this tracks within a small factor of the
	// two-agent 100k bench rather than ~500x slower.
	b.ReportAllocs()
	pop, err := mining.Equal(1000, 350)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		result, err := sim.Run(sim.Config{
			Population: pop,
			Gamma:      0.5,
			Blocks:     100000,
			Seed:       uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if result.RegularCount == 0 {
			b.Fatal("no settled blocks")
		}
	}
	b.ReportMetric(100000, "blocks/op")
}

func BenchmarkSimulator100kBlocks2Pools(b *testing.B) {
	// The K-pool race: two Algorithm-1 pools competing over the same
	// chain. Per-event cost is O(1) in the population and O(K) in the
	// pool count, so this must track within a small factor of the
	// single-pool 100k benchmarks, and the steady state stays
	// allocation-free.
	b.ReportAllocs()
	pop, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		result, err := sim.Run(sim.Config{
			Population: pop,
			Gamma:      0.5,
			Blocks:     100000,
			Seed:       uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if result.RegularCount == 0 {
			b.Fatal("no settled blocks")
		}
	}
	b.ReportMetric(100000, "blocks/op")
}

func BenchmarkSimulator100kBlocks2PoolsStubborn(b *testing.B) {
	// The 2-pool tournament workload: two parametric stubborn pools from
	// the registry racing over the same chain. All three performance
	// invariants must hold with parametric strategies in play — O(1) per
	// event in the population, O(K) in the pool count, and an
	// allocation-free steady state.
	b.ReportAllocs()
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
		result, err := sim.Run(sim.Config{
			Population: pop,
			Gamma:      0.5,
			Blocks:     100000,
			Seed:       uint64(i),
			Strategies: strategies,
		})
		if err != nil {
			b.Fatal(err)
		}
		if result.RegularCount == 0 {
			b.Fatal("no settled blocks")
		}
	}
	b.ReportMetric(100000, "blocks/op")
}

func BenchmarkSimulator100kBlocks2PoolsTable(b *testing.B) {
	// The decision-table showcase: two deep-racing parametric pools whose
	// reactions all resolve inside the compiled table window, so the
	// per-event strategy cost is a table load. Tables are warmed before
	// timing (as the experiment engine does), and the steady state must
	// stay allocation-free.
	b.ReportAllocs()
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
		result, err := sim.Run(sim.Config{
			Population: pop,
			Gamma:      0.5,
			Blocks:     100000,
			Seed:       uint64(i),
			Strategies: strategies,
		})
		if err != nil {
			b.Fatal(err)
		}
		if result.RegularCount == 0 {
			b.Fatal("no settled blocks")
		}
	}
	b.ReportMetric(100000, "blocks/op")
}

func BenchmarkSimulator100kBlocksEIP100(b *testing.B) {
	// The continuous-time engine with the EIP100 difficulty feedback loop
	// closed: one extra exponential draw per event (dedicated stream), a
	// per-event settled-floor observation, and per-block controller
	// stepping. All three performance invariants must survive the time
	// axis — O(1) per event, allocation-free steady state, and the
	// timeless path untouched (pinned separately by TestGoldenTimeless).
	b.ReportAllocs()
	pop, err := mining.TwoAgent(0.35)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		result, err := sim.Run(sim.Config{
			Population: pop,
			Gamma:      0.5,
			Blocks:     100000,
			Seed:       uint64(i),
			Time: sim.TimeConfig{
				Enabled:    true,
				Difficulty: difficulty.Params{Rule: difficulty.EIP100},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if result.RegularCount == 0 || result.Elapsed <= 0 {
			b.Fatal("degenerate timed run")
		}
	}
	b.ReportMetric(100000, "blocks/op")
}

func BenchmarkProfitability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		result, err := experiments.Profitability(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if len(result.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTournament(b *testing.B) {
	for i := 0; i < b.N; i++ {
		result, err := experiments.Tournament(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if len(result.Matches) == 0 {
			b.Fatal("no matches played")
		}
	}
}

func BenchmarkBestResponse(b *testing.B) {
	// One run per point keeps the full (gamma x alpha x candidate) grid
	// affordable as a tracked workload.
	opts := experiments.Quick()
	opts.Runs = 1
	opts.Blocks = 4000
	for i := 0; i < b.N; i++ {
		result, err := experiments.BestResponse(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(result.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkPoolWars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		result, err := experiments.PoolWars(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if len(result.Rows) != 12 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkPoolWarsCacheCold(b *testing.B) {
	// A fresh result cache every op: the sweep's full address/miss/store
	// overhead with zero hits, bounding what caching costs when it cannot
	// help.
	for i := 0; i < b.N; i++ {
		opts := experiments.Quick()
		opts.Cache = resultcache.NewMemory(0)
		if _, err := experiments.PoolWars(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolWarsCacheWarm(b *testing.B) {
	// One prewarmed cache serves every op: ns/op is a fully cached sweep.
	opts := experiments.Quick()
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
}

func BenchmarkSimulator1000Miners(b *testing.B) {
	b.ReportAllocs()
	pop, err := mining.Equal(1000, 350)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{
			Population: pop,
			Gamma:      0.5,
			Blocks:     20000,
			Seed:       uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeFacade(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := Analyze(0.3, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if a.Revenue().Pool(Scenario1) <= 0 {
			b.Fatal("degenerate")
		}
	}
}
