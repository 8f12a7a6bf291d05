package experiments

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/ethselfish/ethselfish/internal/jobkey"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// Ordering, emptiness, and error-determinism of the underlying pool are
// covered in internal/parallel; the tests here pin the engine's seed and
// assembly contracts.

// TestRunSimGridMatchesRunMany pins the engine's seed contract: scheduling
// (grid-point × run) work items across workers must reproduce exactly what
// sequential sim.RunMany produces at each point.
func TestRunSimGridMatchesRunMany(t *testing.T) {
	opts := Options{Runs: 3, Blocks: 2000, Seed: 11, Parallelism: 4}
	alphas := []float64{0.2, 0.35}
	jobs := make([]simJob, len(alphas))
	for i, alpha := range alphas {
		jobs[i] = simJob{alpha: alpha, build: func(*mining.Population) sim.Config {
			return sim.Config{Gamma: fig8Gamma}
		}}
	}
	gridSeries, err := runSimGrid(opts, jobs)
	if err != nil {
		t.Fatal(err)
	}

	for i, alpha := range alphas {
		pop, err := mining.TwoAgent(alpha)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{
			Population:  pop,
			Gamma:       fig8Gamma,
			Blocks:      opts.Blocks,
			Seed:        jobkey.SeedBase(opts.Seed, sim.Config{Population: pop, Gamma: fig8Gamma}),
			Parallelism: 1,
		}
		want, err := sim.RunMany(cfg, opts.Runs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gridSeries[i].Runs, want.Runs) {
			t.Errorf("alpha=%v: grid series differs from sequential RunMany", alpha)
		}
	}
}

// TestFig8ParallelMatchesSequential exercises a full driver through the
// engine at both parallelism settings; run with -race this doubles as the
// engine's data-race check.
func TestFig8ParallelMatchesSequential(t *testing.T) {
	base := Options{Runs: 2, Blocks: 2000, Seed: 5}

	seq := base
	seq.Parallelism = 1
	sequential, err := Fig8(seq)
	if err != nil {
		t.Fatal(err)
	}

	par := base
	par.Parallelism = 8
	parallel, err := Fig8(par)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(sequential, parallel) {
		t.Error("Fig8 parallel result differs from sequential")
	}
}

func TestOptionsRejectNegativeParallelism(t *testing.T) {
	if _, err := Fig8(Options{Parallelism: -2}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("got %v, want ErrBadOptions", err)
	}
}

// TestSweepGridSizes pins sweep's point counts and endpoints: the count is
// computed once by rounding, so float-accumulation drift can never gain or
// lose a grid point.
func TestSweepGridSizes(t *testing.T) {
	tests := []struct {
		start, max, step float64
		n                int
		last             float64
	}{
		{0.05, 0.45, 0.05, 9, 0.45},
		{0.025, 0.45, 0.025, 18, 0.45},
		{0, 1, 0.05, 21, 1},
		{0, 1, 0.1, 11, 1},
		{0.1, 0.9, 0.2, 5, 0.9},
		// Non-dividing steps keep the last point at or below max.
		{0, 1, 0.3, 4, 0.9},
		{0, 1, 0.4, 3, 0.8},
		// Degenerate single-point grids.
		{0.3, 0.3, 0.1, 1, 0.3},
		{0.5, 0.4, 0.1, 1, 0.5},
	}
	for _, tt := range tests {
		got := sweep(tt.start, tt.max, tt.step)
		if len(got) != tt.n {
			t.Errorf("sweep(%v, %v, %v) has %d points, want %d: %v",
				tt.start, tt.max, tt.step, len(got), tt.n, got)
			continue
		}
		if got[0] != tt.start {
			t.Errorf("sweep(%v, %v, %v) starts at %v", tt.start, tt.max, tt.step, got[0])
		}
		if math.Abs(got[len(got)-1]-tt.last) > 1e-12 {
			t.Errorf("sweep(%v, %v, %v) ends at %v, want %v",
				tt.start, tt.max, tt.step, got[len(got)-1], tt.last)
		}
		for i, v := range got {
			if want := tt.start + float64(i)*tt.step; v != want {
				t.Errorf("sweep(%v, %v, %v)[%d] = %v, want exact index multiply %v",
					tt.start, tt.max, tt.step, i, v, want)
			}
		}
	}
}

// TestRunSimGridResolvesSpecs pins the engine's registry plumbing: a job
// carrying strategy specs must produce exactly what the same job produces
// with the strategies constructed by hand.
func TestRunSimGridResolvesSpecs(t *testing.T) {
	opts := Options{Runs: 2, Blocks: 2000, Seed: 3, Parallelism: 2}
	pop, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	viaSpecs, err := runSimGrid(opts, []simJob{{
		alpha: 0.25,
		pop:   pop,
		specs: []sim.StrategySpec{
			sim.MustStrategySpec("stubborn:lead=1"),
			sim.MustStrategySpec("algorithm1"),
		},
		build: func(*mining.Population) sim.Config { return sim.Config{Gamma: 0.5} },
	}})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runSimGrid(opts, []simJob{{
		alpha: 0.25,
		pop:   pop,
		build: func(*mining.Population) sim.Config {
			return sim.Config{Gamma: 0.5, Strategies: []sim.Strategy{
				sim.Stubborn{Lead: true}, sim.Algorithm1{},
			}}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaSpecs, direct) {
		t.Error("spec-resolved grid differs from hand-constructed strategies")
	}

	if _, err := runSimGrid(opts, []simJob{{
		alpha: 0.2,
		specs: []sim.StrategySpec{{Name: "nonsense"}},
		build: func(*mining.Population) sim.Config { return sim.Config{Gamma: 0.5} },
	}}); !errors.Is(err, sim.ErrBadSpec) {
		t.Errorf("bad spec err = %v, want sim.ErrBadSpec", err)
	}
}

// TestJobErrorCoordinates: a failing run surfaces with its grid
// coordinates and exact seed, reproducible as a single sim.Run.
func TestJobErrorCoordinates(t *testing.T) {
	opts := Options{Runs: 2, Blocks: 1000, Seed: 9, Parallelism: 1}
	jobs := []simJob{
		{alpha: 0.2, build: func(*mining.Population) sim.Config {
			return sim.Config{Gamma: 0.5}
		}},
		{alpha: 0.3, build: func(*mining.Population) sim.Config {
			return sim.Config{Gamma: 2} // invalid: gamma must be in [0,1]
		}},
	}
	_, err := runSimGrid(opts, jobs)
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v (%T), want *JobError", err, err)
	}
	if !errors.Is(err, sim.ErrBadConfig) {
		t.Errorf("error chain %v lacks sim.ErrBadConfig", err)
	}
	if je.Point != 1 || je.Run != 0 || je.Alpha != 0.3 {
		t.Errorf("JobError = point %d alpha %g run %d, want point 1 alpha 0.3 run 0",
			je.Point, je.Alpha, je.Run)
	}
	pop, popErr := mining.TwoAgent(0.3)
	if popErr != nil {
		t.Fatal(popErr)
	}
	base := jobkey.SeedBase(opts.Seed, sim.Config{Population: pop, Gamma: 2})
	if want := sim.DeriveSeed(base, 0); je.Seed != want {
		t.Errorf("JobError.Seed = %d, want %d", je.Seed, want)
	}
	for _, part := range []string{"grid point 1", "alpha=0.3", "run 0"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
}
