package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/mining"
)

func multiAgent(t *testing.T, alphas ...float64) *mining.Population {
	t.Helper()
	p, err := mining.MultiAgent(alphas...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSinglePoolEquivalenceSweep pins the K=1 special case of the K-pool
// engine: across an alpha sweep, the default (nil) assignment and an
// explicit [algorithm1] must produce bit-identical results, and so must a
// single pool built by TwoAgent and by the MultiAgent constructor. Together
// with the distribution and model-agreement tests (which pin the absolute
// semantics against the paper's closed forms), this fixes the single-pool
// path to the pre-refactor engine.
func TestSinglePoolEquivalenceSweep(t *testing.T) {
	for _, alpha := range []float64{0.1, 0.2, 0.3, 0.4, 0.45} {
		for _, strat := range []Strategy{nil, Stubborn{Lead: true}, EagerPublish{Lead: 3}} {
			cfg := Config{
				Population: twoAgent(t, alpha),
				Gamma:      0.5,
				Blocks:     20000,
				Seed:       uint64(1000 * alpha),
			}
			if strat != nil {
				cfg.Strategies = []Strategy{strat}
			}
			want := run(t, cfg)

			if strat == nil {
				explicit := cfg
				explicit.Strategies = []Strategy{Algorithm1{}}
				if got := run(t, explicit); !reflect.DeepEqual(want, got) {
					t.Errorf("alpha=%v: explicit [algorithm1] result differs from the default", alpha)
				}
			}

			viaMulti := cfg
			viaMulti.Population = multiAgent(t, alpha)
			if got := run(t, viaMulti); !reflect.DeepEqual(want, got) {
				t.Errorf("alpha=%v strategy=%v: MultiAgent population result differs from TwoAgent", alpha, strat)
			}
		}
	}
}

func TestStrategiesValidation(t *testing.T) {
	pop := multiAgent(t, 0.2, 0.2)
	tests := []struct {
		name       string
		strategies []Strategy
	}{
		{"wrong length", []Strategy{Algorithm1{}}},
		{"nil entry", []Strategy{Algorithm1{}, nil}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Run(Config{
				Population: pop,
				Gamma:      0.5,
				Blocks:     100,
				Strategies: tt.strategies,
			})
			if !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

// unpublishStrategy un-publishes announced blocks once the race is on —
// an invalid reaction the simulator must reject.
type unpublishStrategy struct{}

func (unpublishStrategy) Name() string { return "unpublish" }
func (unpublishStrategy) ReactToPool(ls, lh, published int) Reaction {
	return Reaction{}
}
func (unpublishStrategy) ReactToHonest(ls, lh, published int) Reaction {
	if published >= 2 {
		return Reaction{PublishTo: 1}
	}
	return Algorithm1{}.ReactToHonest(ls, lh, published)
}

// commitBehindStrategy commits without a longer branch.
type commitBehindStrategy struct{}

func (commitBehindStrategy) Name() string { return "commit-behind" }
func (commitBehindStrategy) ReactToPool(ls, lh, published int) Reaction {
	return Reaction{}
}
func (commitBehindStrategy) ReactToHonest(ls, lh, published int) Reaction {
	return Reaction{Commit: true}
}

// TestErrBadReactionSurfacesFromRun covers the validation path end to end:
// an invalid strategy decision must fail the run with ErrBadReaction.
func TestErrBadReactionSurfacesFromRun(t *testing.T) {
	for _, strat := range []Strategy{unpublishStrategy{}, commitBehindStrategy{}} {
		_, err := Run(Config{
			Population: twoAgent(t, 0.4),
			Gamma:      0.5,
			Blocks:     20000,
			Seed:       3,
			Strategies: []Strategy{strat},
		})
		if !errors.Is(err, ErrBadReaction) {
			t.Errorf("%s: err = %v, want ErrBadReaction", strat.Name(), err)
		}
	}
	// The same surfaces through RunMany's worker pool.
	_, err := RunMany(Config{
		Population: twoAgent(t, 0.4),
		Gamma:      0.5,
		Blocks:     20000,
		Seed:       3,
		Strategies: []Strategy{commitBehindStrategy{}},
	}, 4)
	if !errors.Is(err, ErrBadReaction) {
		t.Errorf("RunMany: err = %v, want ErrBadReaction", err)
	}
}

// TestHonestControlPoolsEarnAlpha is the K-pool control arm: pools that
// follow the protocol fork nothing and each earn exactly their hash share.
func TestHonestControlPoolsEarnAlpha(t *testing.T) {
	alphas := []float64{0.25, 0.2}
	r := run(t, Config{
		Population: multiAgent(t, alphas...),
		Gamma:      0.5,
		Blocks:     50000,
		Seed:       201,
		Strategies: []Strategy{HonestStrategy{}, HonestStrategy{}},
	})
	if r.UncleCount != 0 || r.StaleCount != 0 {
		t.Errorf("honest pools produced %d uncles, %d stale blocks", r.UncleCount, r.StaleCount)
	}
	for i, alpha := range alphas {
		got := r.AbsoluteOf(mining.PoolID(i+1), core.Scenario1)
		if math.Abs(got-alpha) > 0.01 {
			t.Errorf("honest pool %d revenue %v, want ~%v", i+1, got, alpha)
		}
	}
	if got := r.AbsoluteOf(mining.HonestPool, core.Scenario1); math.Abs(got-0.55) > 0.01 {
		t.Errorf("honest crowd revenue %v, want ~0.55", got)
	}
}

// TestTwoPoolRaceConsistency runs two Algorithm-1 pools against each other
// and checks the global invariants survive competing private branches:
// reward conservation, block accounting, per-pool tallies summing to the
// camp aggregates, and per-pool occupancy counting every event.
func TestTwoPoolRaceConsistency(t *testing.T) {
	r := run(t, Config{
		Population: multiAgent(t, 0.3, 0.25),
		Gamma:      0.5,
		Blocks:     100000,
		Seed:       211,
	})
	if got := r.Pool.Static + r.Honest.Static; math.Abs(got-float64(r.RegularCount)) > 1e-9 {
		t.Errorf("static rewards %v != regular blocks %d", got, r.RegularCount)
	}
	gotNephew := r.Pool.Nephew + r.Honest.Nephew
	if math.Abs(gotNephew-float64(r.UncleCount)/32) > 1e-9 {
		t.Errorf("nephew rewards %v != UncleCount/32", gotNephew)
	}
	settled := r.RegularCount + r.UncleCount + r.StaleCount
	if settled > r.Blocks {
		t.Errorf("settled %d blocks out of %d events", settled, r.Blocks)
	}
	if r.Blocks-settled > 300 {
		t.Errorf("settlement dropped %d blocks; races should be short", r.Blocks-settled)
	}
	if len(r.ByPool) != 3 {
		t.Fatalf("ByPool has %d entries, want 3", len(r.ByPool))
	}
	if got := r.ByPool[1].Add(r.ByPool[2]); got != r.Pool {
		t.Errorf("pool tallies %v + %v != aggregate %v", r.ByPool[1], r.ByPool[2], r.Pool)
	}
	if r.ByPool[0] != r.Honest {
		t.Errorf("ByPool[0] %v != Honest %v", r.ByPool[0], r.Honest)
	}
	if len(r.OccupancyByPool) != 2 {
		t.Fatalf("OccupancyByPool has %d entries, want 2", len(r.OccupancyByPool))
	}
	for p, occ := range r.OccupancyByPool {
		var total int64
		for _, n := range occ {
			total += n
		}
		if total != int64(r.Blocks) {
			t.Errorf("pool %d occupancy counts sum to %d, want %d", p+1, total, r.Blocks)
		}
	}
	if r.ByPool[1].Total() <= 0 || r.ByPool[2].Total() <= 0 {
		t.Errorf("both pools should earn rewards, got %v and %v", r.ByPool[1], r.ByPool[2])
	}
	// Determinism across identical seeds.
	again := run(t, Config{
		Population: multiAgent(t, 0.3, 0.25),
		Gamma:      0.5,
		Blocks:     100000,
		Seed:       211,
	})
	if !reflect.DeepEqual(r, again) {
		t.Error("identical two-pool runs differ")
	}
}

// TestRivalPoolEffectByScenario checks the headline pool-wars effect and
// its dependence on the difficulty rule. Two 0.30 pools racing each other
// stale an order of magnitude more blocks than one attacker does. Under
// uncle-blind difficulty (scenario 1) that staling lowers difficulty and
// *raises* each attacker's absolute revenue — compounding the attack the
// paper quantifies. Under EIP100 (scenario 2), which counts uncles in the
// difficulty signal, the same rivalry lowers the attacker's revenue below
// its single-attacker value: the emendation the paper's conclusion
// endorses also blunts multi-pool races.
func TestRivalPoolEffectByScenario(t *testing.T) {
	const blocks = 150000
	alone, err := RunMany(Config{
		Population: multiAgent(t, 0.3),
		Gamma:      0.5,
		Blocks:     blocks,
		Seed:       77,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	contested, err := RunMany(Config{
		Population: multiAgent(t, 0.3, 0.3),
		Gamma:      0.5,
		Blocks:     blocks,
		Seed:       78,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sole1 := alone.AbsoluteOf(1, core.Scenario1).Mean()
	rival1 := contested.AbsoluteOf(1, core.Scenario1).Mean()
	if rival1 <= sole1 {
		t.Errorf("scenario 1: pool 1 earns %v against a rival, %v alone; staling should lower difficulty and raise revenue",
			rival1, sole1)
	}
	sole2 := alone.AbsoluteOf(1, core.Scenario2).Mean()
	rival2 := contested.AbsoluteOf(1, core.Scenario2).Mean()
	if rival2 >= sole2 {
		t.Errorf("scenario 2 (EIP100): pool 1 earns %v against a rival, %v alone; counting uncles should blunt the rivalry",
			rival2, sole2)
	}
	staleFraction := func(s Series) float64 {
		var stale, total float64
		for i := range s.Runs {
			r := &s.Runs[i]
			stale += float64(r.StaleCount)
			total += float64(r.RegularCount + r.UncleCount + r.StaleCount)
		}
		return stale / total
	}
	if lone, dueling := staleFraction(alone), staleFraction(contested); dueling < 5*lone {
		t.Errorf("stale fraction %v with a rival vs %v alone; dueling pools should waste far more blocks",
			dueling, lone)
	}
}

// TestHeterogeneousStrategiesRun pins the mixed-strategy configuration:
// one Algorithm-1 attacker against one honest-control pool; the control
// pool behaves like the honest crowd (its revenue tracks the crowd's
// per-power rate, below its alpha because the attacker steals time share).
func TestHeterogeneousStrategiesRun(t *testing.T) {
	r := run(t, Config{
		Population: multiAgent(t, 0.3, 0.2),
		Gamma:      0.5,
		Blocks:     100000,
		Seed:       221,
		Strategies: []Strategy{Algorithm1{}, HonestStrategy{}},
	})
	attacker := r.AbsoluteOf(1, core.Scenario1)
	control := r.AbsoluteOf(2, core.Scenario1)
	crowd := r.AbsoluteOf(mining.HonestPool, core.Scenario1)
	// Pool 2 mines honestly with 0.2 power over a crowd of 0.5: its
	// revenue per unit power must match the crowd's (within noise).
	if math.Abs(control/0.2-crowd/0.5) > 0.05 {
		t.Errorf("control pool rate %v differs from crowd rate %v", control/0.2, crowd/0.5)
	}
	if attacker <= 0 || control <= 0 {
		t.Errorf("degenerate revenues: attacker %v, control %v", attacker, control)
	}
	// At alpha = 0.3, gamma = 0.5 Algorithm 1 is profitable (Fig. 8):
	// the attacker clears its alpha even with a control pool present.
	if attacker <= 0.3 {
		t.Errorf("attacker revenue %v should exceed its alpha 0.3", attacker)
	}
}

// TestGammaSplitsAcrossTiedPools exercises the multi-branch tie rule.
// Unlike the single-pool setting — where gamma = 1 eliminates pool uncles
// entirely — two competing pools stale each other's blocks in pool-vs-pool
// ties no matter how honest miners break them, so pool uncles persist at
// every gamma; raising gamma must still shrink their number, because the
// pool-vs-honest ties are resolved toward the pools.
func TestGammaSplitsAcrossTiedPools(t *testing.T) {
	uncles := func(gamma float64, seed uint64) int64 {
		series, err := RunMany(Config{
			Population: multiAgent(t, 0.25, 0.25),
			Gamma:      gamma,
			Blocks:     50000,
			Seed:       seed,
		}, 3)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for i := range series.Runs {
			total += series.Runs[i].PoolUncleDistances.Total()
		}
		return total
	}
	favored := uncles(1, 231)
	spurned := uncles(0, 233)
	if favored == 0 {
		t.Error("gamma=1: expected pool-vs-pool ties to still stale pool blocks")
	}
	if favored >= spurned {
		t.Errorf("gamma=1 produced %d pool uncles, gamma=0 %d; higher gamma should shed fewer",
			favored, spurned)
	}
}
