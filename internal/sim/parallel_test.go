package sim

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/ethselfish/ethselfish/internal/mining"
)

// sequentialRuns is RunMany's sequential oracle: runs fresh Run calls,
// seeded by DeriveSeed, in run-index order.
func sequentialRuns(t *testing.T, cfg Config, runs int) []Result {
	t.Helper()
	out := make([]Result, runs)
	for i := range out {
		runCfg := cfg
		runCfg.Seed = DeriveSeed(cfg.Seed, i)
		r, err := Run(runCfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// TestRunManyParallelDeterminism is the engine's core contract: fanning
// runs across workers must produce run-for-run identical Results to the
// sequential execution, in the same order. GOMAXPROCS is raised so the
// fan-out runs even on a one-CPU machine.
func TestRunManyParallelDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	pop, err := mining.TwoAgent(0.35)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Population: pop,
		Gamma:      0.5,
		Blocks:     5000,
		Seed:       42,
	}

	parallel, err := RunMany(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	sequential := sequentialRuns(t, cfg, 8)
	if len(sequential) != len(parallel.Runs) {
		t.Fatalf("run counts differ: %d sequential vs %d parallel",
			len(sequential), len(parallel.Runs))
	}
	for i := range sequential {
		if !reflect.DeepEqual(sequential[i], parallel.Runs[i]) {
			t.Errorf("run %d: parallel result differs from sequential", i)
		}
	}
}

// TestRunManyDefaultParallelism checks RunMany at the machine's own
// GOMAXPROCS also matches the sequential stream (it exercises the
// workers>1 path on multi-core machines and the workers==1 shortcut on
// single-core ones).
func TestRunManyDefaultParallelism(t *testing.T) {
	pop, err := mining.TwoAgent(0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Population: pop, Gamma: 0.5, Blocks: 2000, Seed: 7}

	defaulted, err := RunMany(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sequentialRuns(t, cfg, 4), defaulted.Runs) {
		t.Error("default parallelism produced different results than sequential")
	}
}

// TestRunManyParallelError verifies an invalid configuration fails the
// whole batch even when runs execute concurrently.
func TestRunManyParallelError(t *testing.T) {
	pop, err := mining.TwoAgent(0.35)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Population:        pop,
		Gamma:             0.5,
		Blocks:            100,
		MaxUnclesPerBlock: -1, // rejected by validate inside each run
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if _, err := RunMany(cfg, 8); !errors.Is(err, ErrBadConfig) {
		t.Errorf("got %v, want ErrBadConfig", err)
	}
}

// TestRunnerReuseMatchesFreshRuns pins the simulator-reuse contract: one
// Runner executing a heterogeneous sequence of configurations (different
// populations, block counts, schedules, seeds) must produce results
// bit-identical to fresh Run calls — i.e. init fully resets every piece of
// run state it reuses.
func TestRunnerReuseMatchesFreshRuns(t *testing.T) {
	two, err := mining.TwoAgent(0.35)
	if err != nil {
		t.Fatal(err)
	}
	thousand, err := mining.Equal(1000, 350)
	if err != nil {
		t.Fatal(err)
	}
	twoPools, err := mining.MultiAgent(0.3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	threePools, err := mining.EqualPools(100, 25, 20, 15)
	if err != nil {
		t.Fatal(err)
	}
	configs := []Config{
		{Population: thousand, Gamma: 0.5, Blocks: 8000, Seed: 1},
		{Population: two, Gamma: 0.5, Blocks: 3000, Seed: 2},
		// Multi-pool runs interleave with single-pool ones, so the
		// reused per-pool branches, occupancy grids, and roots must
		// all re-shape cleanly between runs.
		{Population: twoPools, Gamma: 0.5, Blocks: 6000, Seed: 4},
		{Population: two, Gamma: 0, Blocks: 5000, Seed: 1, MaxUnclesPerBlock: 2},
		{Population: threePools, Gamma: 0.5, Blocks: 4000, Seed: 5,
			Strategies: []Strategy{Algorithm1{}, HonestStrategy{}, Stubborn{Lead: true}}},
		{Population: thousand, Gamma: 1, Blocks: 2000, Seed: 3},
		{Population: twoPools, Gamma: 1, Blocks: 3000, Seed: 6, MaxUnclesPerBlock: 2},
		// Repeat the first configuration: the runner's storage has been
		// through smaller and differently shaped runs in between.
		{Population: thousand, Gamma: 0.5, Blocks: 8000, Seed: 1},
	}
	runner := NewRunner()
	for i, cfg := range configs {
		reused, err := runner.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Errorf("config %d: reused runner result differs from fresh run", i)
		}
	}
}

// TestRunManyParallelDeterminismTwoPools extends the engine contract to
// the K-pool race: fanned-out multi-pool runs (heterogeneous strategies
// included) must be run-for-run identical to sequential execution.
func TestRunManyParallelDeterminismTwoPools(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	pop, err := mining.MultiAgent(0.3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Population: pop,
		Gamma:      0.5,
		Blocks:     5000,
		Seed:       42,
		Strategies: []Strategy{Algorithm1{}, HonestStrategy{}},
	}

	parallel, err := RunMany(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range sequentialRuns(t, cfg, 8) {
		if !reflect.DeepEqual(want, parallel.Runs[i]) {
			t.Errorf("run %d: parallel two-pool result differs from sequential", i)
		}
	}
}

// TestRunnerResetAfterFailure: a Runner whose run failed partway (here on a
// strategy's invalid reaction) must produce bit-identical clean runs
// afterwards, because init rewinds all run state.
func TestRunnerResetAfterFailure(t *testing.T) {
	pop, err := mining.TwoAgent(0.35)
	if err != nil {
		t.Fatal(err)
	}
	clean := Config{Population: pop, Gamma: 0.5, Blocks: 2000, Seed: 7}
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	// conflictStrategy fails mid-run once the pool holds a private lead.
	bad := clean
	bad.Strategies = []Strategy{conflictStrategy{}}

	rn := NewRunner()
	if _, err := rn.Run(bad); !errors.Is(err, ErrBadReaction) {
		t.Fatalf("err = %v, want ErrBadReaction", err)
	}
	got, err := rn.Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("rerun after a failed run differs from a fresh run")
	}
}

// conflictStrategy emits a Commit+Adopt reaction — always invalid — as soon
// as the pool has any private blocks to commit.
type conflictStrategy struct{}

func (conflictStrategy) Name() string { return "test-conflict" }

func (conflictStrategy) ReactToPool(ls, lh, published int) Reaction {
	if ls > lh {
		return Reaction{Commit: true, Adopt: true}
	}
	return Algorithm1{}.ReactToPool(ls, lh, published)
}

func (conflictStrategy) ReactToHonest(ls, lh, published int) Reaction {
	return Algorithm1{}.ReactToHonest(ls, lh, published)
}

func TestDeriveSeedSpreadsRuns(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		s := DeriveSeed(1, i)
		if seen[s] {
			t.Fatalf("duplicate derived seed at run %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("distinct bases should derive distinct seeds")
	}
}
