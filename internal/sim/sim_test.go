package sim

import (
	"errors"
	"math"
	"testing"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
)

func twoAgent(t *testing.T, alpha float64) *mining.Population {
	t.Helper()
	p, err := mining.TwoAgent(alpha)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	pop := twoAgent(t, 0.3)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"no population", Config{Gamma: 0.5, Blocks: 10}},
		{"bad gamma", Config{Population: pop, Gamma: 1.5, Blocks: 10}},
		{"NaN gamma", Config{Population: pop, Gamma: math.NaN(), Blocks: 10}},
		{"no blocks", Config{Population: pop, Gamma: 0.5}},
		{"negative uncle cap", Config{Population: pop, Gamma: 0.5, Blocks: 10, MaxUnclesPerBlock: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 5000, Seed: 42}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Pool != b.Pool || a.Honest != b.Honest || a.RegularCount != b.RegularCount {
		t.Error("identical seeds produced different results")
	}
	cfg.Seed = 43
	c := run(t, cfg)
	if a.Pool == c.Pool && a.RegularCount == c.RegularCount && a.UncleCount == c.UncleCount {
		t.Error("different seeds produced identical results")
	}
}

func TestBlockAccounting(t *testing.T) {
	r := run(t, Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 20000, Seed: 1})
	settled := r.RegularCount + r.UncleCount + r.StaleCount
	if settled > r.Blocks {
		t.Errorf("settled %d blocks out of %d events", settled, r.Blocks)
	}
	// The unfinished final race is excluded, so the difference is at
	// most a short race, not a macroscopic fraction.
	if r.Blocks-settled > 200 {
		t.Errorf("settlement dropped %d blocks; races should be short", r.Blocks-settled)
	}
	if r.RegularCount == 0 || r.UncleCount == 0 {
		t.Error("expected regular and uncle blocks at alpha=0.35")
	}
}

// TestEventCounts checks the event tally: the per-pool counts must sum to
// Blocks and the selfish share must sit near alpha (its exact mean).
func TestEventCounts(t *testing.T) {
	const alpha = 0.3
	cfg := Config{Population: twoAgent(t, alpha), Gamma: 0.5, Blocks: 50000, Seed: 4141}
	res := run(t, cfg)
	var total int64
	for _, n := range res.EventsByPool {
		total += n
	}
	if total != int64(cfg.Blocks) {
		t.Errorf("events sum to %d, want %d", total, cfg.Blocks)
	}
	share := res.SelfishEventShare()
	sigma := math.Sqrt(alpha * (1 - alpha) / float64(cfg.Blocks))
	if math.Abs(share-alpha) > 5*sigma {
		t.Errorf("selfish event share %v deviates more than 5 sigma from %v", share, alpha)
	}
}

func TestHonestOnlyPopulation(t *testing.T) {
	// With no selfish miners every block is regular and every miner
	// earns exactly its blocks.
	pop, err := mining.Equal(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, Config{Population: pop, Gamma: 0.5, Blocks: 5000, Seed: 7})
	if r.UncleCount != 0 || r.StaleCount != 0 {
		t.Errorf("honest-only run produced %d uncles, %d stale", r.UncleCount, r.StaleCount)
	}
	if r.Pool.Total() != 0 {
		t.Errorf("pool rewards %v without selfish miners", r.Pool.Total())
	}
	if got := r.HonestAbsolute(core.Scenario1); math.Abs(got-1) > 1e-9 {
		t.Errorf("honest absolute revenue %v, want 1", got)
	}
}

func TestStateOccupancyMatchesStationaryDistribution(t *testing.T) {
	// The fraction of block events seen in each (Ls, Lh) state must
	// match the analytic stationary distribution.
	const blocks = 400000
	alpha, gamma := 0.35, 0.5
	r := run(t, Config{Population: twoAgent(t, alpha), Gamma: gamma, Blocks: blocks, Seed: 11})
	m, err := core.New(core.Params{Alpha: alpha, Gamma: gamma})
	if err != nil {
		t.Fatal(err)
	}
	states := []core.State{
		{S: 0, H: 0}, {S: 1, H: 0}, {S: 1, H: 1},
		{S: 2, H: 0}, {S: 3, H: 0}, {S: 3, H: 1}, {S: 4, H: 1}, {S: 4, H: 2},
	}
	for _, s := range states {
		got := float64(r.Occupancy[s]) / float64(r.Blocks)
		want := m.Pi(s)
		// Tolerance ~ 4 sigma of a binomial proportion.
		tol := 4*math.Sqrt(want*(1-want)/blocks) + 1e-4
		if math.Abs(got-want) > tol {
			t.Errorf("state %v: occupancy %.5f, analytic %.5f (tol %.5f)", s, got, want, tol)
		}
	}
}

func TestRevenueMatchesAnalyticModel(t *testing.T) {
	// End-to-end: simulated absolute revenues against the closed-form
	// model, both scenarios, at the paper's gamma = 0.5.
	for _, alpha := range []float64{0.2, 0.35, 0.45} {
		series, err := RunMany(Config{
			Population: twoAgent(t, alpha),
			Gamma:      0.5,
			Blocks:     150000,
			Seed:       1234,
		}, 4)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.New(core.Params{Alpha: alpha, Gamma: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		rev := m.Revenue()
		for _, scenario := range []core.Scenario{core.Scenario1, core.Scenario2} {
			acc := series.PoolAbsolute(scenario)
			want := rev.PoolAbsolute(scenario)
			if math.Abs(acc.Mean()-want) > 0.01 {
				t.Errorf("alpha=%v %v: simulated pool revenue %.4f, analytic %.4f",
					alpha, scenario, acc.Mean(), want)
			}
			accH := series.HonestAbsolute(scenario)
			wantH := rev.HonestAbsolute(scenario)
			if math.Abs(accH.Mean()-wantH) > 0.01 {
				t.Errorf("alpha=%v %v: simulated honest revenue %.4f, analytic %.4f",
					alpha, scenario, accH.Mean(), wantH)
			}
		}
	}
}

func TestPoolUnclesAllDistanceOne(t *testing.T) {
	// Remark 5: the pool's uncles are always referenced at distance 1.
	r := run(t, Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 100000, Seed: 3})
	if r.PoolUncleDistances.Total() == 0 {
		t.Fatal("expected pool uncles at gamma = 0.5")
	}
	for _, d := range r.PoolUncleDistances.Outcomes() {
		if d != 1 {
			t.Errorf("pool uncle referenced at distance %d (count %d), want only 1",
				d, r.PoolUncleDistances.Count(d))
		}
	}
}

func TestHonestUncleDistancesMatchTable2(t *testing.T) {
	// Table II: the distribution of honest uncle reference distances at
	// gamma = 0.5 for alpha in {0.3, 0.45}.
	table := map[float64]struct {
		dist []float64
		mean float64
	}{
		0.30: {[]float64{0.527, 0.295, 0.111, 0.043, 0.017, 0.007}, 1.75},
		0.45: {[]float64{0.284, 0.249, 0.171, 0.125, 0.096, 0.075}, 2.72},
	}
	for alpha, want := range table {
		series, err := RunMany(Config{
			Population: twoAgent(t, alpha),
			Gamma:      0.5,
			Blocks:     200000,
			Seed:       99,
		}, 3)
		if err != nil {
			t.Fatal(err)
		}
		got := series.HonestUncleDistribution(6)
		for d := 1; d <= 6; d++ {
			if math.Abs(got.P[d-1]-want.dist[d-1]) > 0.02 {
				t.Errorf("alpha=%v distance %d: simulated %.3f, Table II %.3f",
					alpha, d, got.P[d-1], want.dist[d-1])
			}
		}
		if math.Abs(got.Mean()-want.mean) > 0.06 {
			t.Errorf("alpha=%v: simulated expectation %.3f, Table II %.2f",
				alpha, got.Mean(), want.mean)
		}
	}
}

func TestEqualPopulationMatchesTwoAgent(t *testing.T) {
	// The paper simulates n = 1000 equal miners with 300 selfish; the
	// aggregate statistics must match the two-agent abstraction.
	pop, err := mining.Equal(1000, 300)
	if err != nil {
		t.Fatal(err)
	}
	many := run(t, Config{Population: pop, Gamma: 0.5, Blocks: 150000, Seed: 5})
	m, err := core.New(core.Params{Alpha: 0.3, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Revenue().PoolAbsolute(core.Scenario1)
	if got := many.PoolAbsolute(core.Scenario1); math.Abs(got-want) > 0.015 {
		t.Errorf("1000-miner pool revenue %.4f, analytic %.4f", got, want)
	}
	// Individual selfish miners split the pool's revenue; spot-check
	// that rewards were attributed to many distinct miners.
	seen := 0
	for _, ok := range many.MinerSeen {
		if ok {
			seen++
		}
	}
	if seen < 500 {
		t.Errorf("only %d miners earned rewards; expected most of 1000", seen)
	}
}

func TestNephewRewardConservation(t *testing.T) {
	// Every counted uncle grants exactly one 1/32 nephew reward.
	r := run(t, Config{Population: twoAgent(t, 0.4), Gamma: 0.5, Blocks: 50000, Seed: 13})
	gotNephew := r.Pool.Nephew + r.Honest.Nephew
	wantNephew := float64(r.UncleCount) / 32
	if math.Abs(gotNephew-wantNephew) > 1e-9 {
		t.Errorf("nephew total %v, want UncleCount/32 = %v", gotNephew, wantNephew)
	}
	gotUncle := r.Pool.Uncle + r.Honest.Uncle
	if gotUncle <= 0 {
		t.Error("expected positive uncle rewards")
	}
	// Static rewards equal the regular block count (Ks = 1).
	if got := r.Pool.Static + r.Honest.Static; math.Abs(got-float64(r.RegularCount)) > 1e-9 {
		t.Errorf("static total %v, want RegularCount %d", got, r.RegularCount)
	}
}

func TestGammaOneNoPoolUncles(t *testing.T) {
	r := run(t, Config{Population: twoAgent(t, 0.3), Gamma: 1, Blocks: 100000, Seed: 17})
	if n := r.PoolUncleDistances.Total(); n != 0 {
		t.Errorf("gamma=1: %d pool uncles, want 0", n)
	}
}

func TestGammaZeroMorePoolUncles(t *testing.T) {
	// At gamma = 0 the pool loses every tie it does not resolve itself,
	// so pool uncles appear; at gamma = 1 they never do.
	r0 := run(t, Config{Population: twoAgent(t, 0.3), Gamma: 0, Blocks: 100000, Seed: 19})
	if n := r0.PoolUncleDistances.Total(); n == 0 {
		t.Error("gamma=0: expected pool uncles")
	}
}

func TestMaxUnclesPerBlockLimit(t *testing.T) {
	// With Ethereum's limit of 2 uncles per block the run must still
	// settle cleanly and produce no block with more than 2 references.
	r := run(t, Config{
		Population:        twoAgent(t, 0.4),
		Gamma:             0.5,
		Blocks:            50000,
		Seed:              23,
		MaxUnclesPerBlock: 2,
	})
	if r.UncleCount == 0 {
		t.Error("expected uncles")
	}
}

func TestOccupancyOverflowBeyondDenseGrid(t *testing.T) {
	// At alpha = 0.95 the pool's lead grows past the dense occupancy
	// grid, exercising the rare-overflow map. Every event must still be
	// counted exactly once.
	r := run(t, Config{Population: twoAgent(t, 0.95), Gamma: 0.5, Blocks: 2000, Seed: 41})
	var total int64
	deep := false
	for state, n := range r.Occupancy {
		total += n
		if state.S >= 64 {
			deep = true
		}
	}
	if total != int64(r.Blocks) {
		t.Errorf("occupancy counts sum to %d, want %d", total, r.Blocks)
	}
	if !deep {
		t.Error("expected states beyond the dense grid at alpha=0.95")
	}
}

func TestRunManySeedsDiffer(t *testing.T) {
	series, err := RunMany(Config{
		Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 2000, Seed: 1,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(series.Runs))
	}
	if series.Runs[0].Pool == series.Runs[1].Pool &&
		series.Runs[1].Pool == series.Runs[2].Pool {
		t.Error("runs look identical; seeds not varied")
	}
	if _, err := RunMany(Config{Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 10}, 0); err == nil {
		t.Error("RunMany with zero runs should fail")
	}
}

func TestSmallAlphaLosesOnlySlightly(t *testing.T) {
	// Fig. 8: below the threshold the pool loses revenue, but "just a
	// small amount" thanks to uncle rewards. At alpha = 0.02 (well below
	// the 0.054 threshold) the simulated revenue must track the analytic
	// value, which sits slightly below alpha.
	const alpha = 0.02
	series, err := RunMany(Config{
		Population: twoAgent(t, alpha), Gamma: 0.5, Blocks: 100000, Seed: 31,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.Params{Alpha: alpha, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Revenue().PoolAbsolute(core.Scenario1)
	if want >= alpha {
		t.Fatalf("analytic revenue %v not below alpha; threshold assumption broken", want)
	}
	got := series.PoolAbsolute(core.Scenario1).Mean()
	if math.Abs(got-want) > 0.003 {
		t.Errorf("pool revenue %.4f, analytic %.4f", got, want)
	}
	// The cushion: the loss is small (under 20% of alpha), unlike
	// Bitcoin where the same strategy forfeits far more.
	if want < alpha*0.8 {
		t.Errorf("analytic revenue %v implausibly low; uncle rewards should cushion the loss", want)
	}
}

func TestBitcoinScheduleMatchesEyalSirer(t *testing.T) {
	// Zero uncle rewards: the pool's share must match the Eyal-Sirer
	// relative revenue (Remark 4).
	alpha, gamma := 0.35, 0.5
	series, err := RunMany(Config{
		Population: twoAgent(t, alpha),
		Gamma:      gamma,
		Schedule:   rewards.Bitcoin(),
		Blocks:     150000,
		Seed:       37,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, g := alpha, gamma
	want := (a*(1-a)*(1-a)*(4*a+g*(1-2*a)) - a*a*a) / (1 - a*(1+(2-a)*a))
	acc := series.Mean(func(r *Result) float64 { return r.PoolShare() })
	got := acc.Mean()
	if math.Abs(got-want) > 0.01 {
		t.Errorf("simulated share %.4f, Eyal-Sirer %.4f", got, want)
	}
}
