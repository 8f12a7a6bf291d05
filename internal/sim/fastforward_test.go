package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
)

// The fast-forward mode changes how the random stream is consumed, so it is
// pinned in distribution, not bit-for-bit: revenue within the combined
// confidence band of the plain loop, occupancy by a two-sample chi-squared
// homogeneity test, exact reward conservation via the auditor, and
// bit-determinism plus parallel ≡ sequential within the mode.

func ffConfig(t *testing.T, alpha float64, blocks int, seed uint64) Config {
	t.Helper()
	return Config{
		Population: twoAgent(t, alpha),
		Gamma:      0.5,
		Blocks:     blocks,
		Seed:       seed,
	}
}

// meanAndStdErr accumulates the metric over runs of cfg at derived seeds.
func meanAndStdErr(t *testing.T, cfg Config, runs int, metric func(Result) float64) (mean, se float64) {
	t.Helper()
	var sum, sumSq float64
	for i := 0; i < runs; i++ {
		runCfg := cfg
		runCfg.Seed = DeriveSeed(cfg.Seed, i)
		res, err := Run(runCfg)
		if err != nil {
			t.Fatal(err)
		}
		y := metric(res)
		sum += y
		sumSq += y * y
	}
	n := float64(runs)
	mean = sum / n
	variance := (sumSq - n*mean*mean) / (n - 1)
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance / n)
}

// TestFastForwardRevenueAgreement pins the headline metric — the pool's
// absolute revenue — across modes: the fast-forward mean must sit within the
// combined 5-sigma band of the plain mean at the same alpha.
func TestFastForwardRevenueAgreement(t *testing.T) {
	for _, alpha := range []float64{0.15, 1.0 / 3.0} {
		cfg := ffConfig(t, alpha, 20000, 909)
		const runs = 24
		metric := func(r Result) float64 { return r.PoolAbsolute(core.Scenario1) }
		plainMean, plainSE := meanAndStdErr(t, cfg, runs, metric)
		ffCfg := cfg
		ffCfg.FastForward = true
		ffMean, ffSE := meanAndStdErr(t, ffCfg, runs, metric)
		band := 5 * math.Sqrt(plainSE*plainSE+ffSE*ffSE)
		if math.Abs(plainMean-ffMean) > band {
			t.Errorf("alpha %v: plain revenue %v vs fast-forward %v differ beyond %v",
				alpha, plainMean, ffMean, band)
		}
	}
}

// TestFastForwardOccupancyAgreement runs a two-sample chi-squared
// homogeneity test over the (Ls, Lh) occupancy distributions of the two
// modes, with thin states pooled into one tail bin.
func TestFastForwardOccupancyAgreement(t *testing.T) {
	cfg := ffConfig(t, 0.3, 20000, 1213)
	const runs = 12
	gather := func(cfg Config) (map[core.State]int64, int64) {
		counts := make(map[core.State]int64)
		var total int64
		for i := 0; i < runs; i++ {
			runCfg := cfg
			runCfg.Seed = DeriveSeed(cfg.Seed, i)
			res, err := Run(runCfg)
			if err != nil {
				t.Fatal(err)
			}
			for s, n := range res.Occupancy {
				counts[s] += n
				total += n
			}
		}
		return counts, total
	}
	plain, n1 := gather(cfg)
	ffCfg := cfg
	ffCfg.FastForward = true
	ff, n2 := gather(ffCfg)

	// Pool the two samples per state; states whose pooled expectation is
	// thin go into a shared tail bin.
	states := make(map[core.State]bool)
	for s := range plain {
		states[s] = true
	}
	for s := range ff {
		states[s] = true
	}
	var stat float64
	df := -1
	var tail1, tail2 int64
	for s := range states {
		c1, c2 := plain[s], ff[s]
		if c1+c2 < 50 {
			tail1 += c1
			tail2 += c2
			continue
		}
		stat += homogeneityTerm(c1, c2, n1, n2)
		df++
	}
	if tail1+tail2 > 0 {
		stat += homogeneityTerm(tail1, tail2, n1, n2)
		df++
	}
	if df < 1 {
		t.Fatal("degenerate occupancy: nothing to test")
	}
	// Wilson–Hilferty upper 0.001 quantile, as in the rng suite.
	z := 3.09
	d := float64(df)
	wh := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	if crit := d * wh * wh * wh; stat > crit {
		t.Errorf("occupancy chi-squared %.2f exceeds critical %.2f (df %d)", stat, crit, df)
	}
}

// homogeneityTerm is one bin's contribution to the two-sample chi-squared
// statistic under the pooled-proportion null.
func homogeneityTerm(c1, c2, n1, n2 int64) float64 {
	p := float64(c1+c2) / float64(n1+n2)
	e1 := p * float64(n1)
	e2 := p * float64(n2)
	d1 := float64(c1) - e1
	d2 := float64(c2) - e2
	return d1*d1/e1 + d2*d2/e2
}

// TestFastForwardConservationAudit drives the full runtime auditor (reward
// conservation, timestamp monotonicity, floor monotonicity, fork-child
// rescans) through fast-forward runs, timeless and timed.
func TestFastForwardConservationAudit(t *testing.T) {
	for _, timed := range []bool{false, true} {
		cfg := ffConfig(t, 0.3, 30000, 1717)
		cfg.FastForward = true
		cfg.Audit = AuditConfig{Enabled: true, SampleEvery: 64}
		cfg.Time.Enabled = timed
		if _, err := Run(cfg); err != nil {
			t.Errorf("timed=%v: audited fast-forward run failed: %v", timed, err)
		}
	}
}

// TestFastForwardAntitheticAudit runs the auditor over the antithetic mirror
// stream, in both modes.
func TestFastForwardAntitheticAudit(t *testing.T) {
	for _, ffwd := range []bool{false, true} {
		cfg := ffConfig(t, 0.3, 20000, 2121)
		cfg.FastForward = ffwd
		cfg.Antithetic = true
		cfg.Audit = AuditConfig{Enabled: true, SampleEvery: 64}
		cfg.Time.Enabled = true
		if _, err := Run(cfg); err != nil {
			t.Errorf("fastforward=%v: audited antithetic run failed: %v", ffwd, err)
		}
	}
}

// TestFastForwardDeterminism pins invariant 3 within the mode: identical
// seeds give identical results, runner reuse included, and RunMany is
// bit-identical across parallelism levels.
func TestFastForwardDeterminism(t *testing.T) {
	cfg := ffConfig(t, 0.25, 20000, 3131)
	cfg.FastForward = true
	cfg.Time.Enabled = true

	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rn := NewRunner()
	if _, err := rn.Run(ffConfig(t, 0.4, 5000, 77)); err != nil { // dirty the runner
		t.Fatal(err)
	}
	b, err := rn.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("fast-forward run is not bit-deterministic across runner reuse")
	}

	seq := cfg
	seq.Parallelism = 1
	par := cfg
	par.Parallelism = 4
	sres, err := RunMany(seq, 8)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := RunMany(par, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sres, pres) {
		t.Error("fast-forward RunMany differs between sequential and parallel execution")
	}

	anti := cfg
	anti.Antithetic = true
	x, err := Run(anti)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Run(anti)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x, y) {
		t.Error("antithetic run is not bit-deterministic")
	}
	if reflect.DeepEqual(a.ByPool, x.ByPool) {
		t.Error("antithetic stream produced the same rewards as the plain stream")
	}
}

// TestFastForwardEventCounts checks the new event tally in both modes: the
// per-pool counts must sum to Blocks and the selfish share must sit near
// alpha (its exact mean).
func TestFastForwardEventCounts(t *testing.T) {
	const alpha = 0.3
	for _, ffwd := range []bool{false, true} {
		cfg := ffConfig(t, alpha, 50000, 4141)
		cfg.FastForward = ffwd
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, n := range res.EventsByPool {
			total += n
		}
		if total != int64(cfg.Blocks) {
			t.Errorf("fastforward=%v: events sum to %d, want %d", ffwd, total, cfg.Blocks)
		}
		share := res.SelfishEventShare()
		sigma := math.Sqrt(alpha * (1 - alpha) / float64(cfg.Blocks))
		if math.Abs(share-alpha) > 5*sigma {
			t.Errorf("fastforward=%v: selfish event share %v deviates more than 5 sigma from %v",
				ffwd, share, alpha)
		}
	}
}

// TestFastForwardTimedAxis checks the bulk Gamma clock: elapsed time must
// scale with the block count at unit difficulty, and the settled range must
// be stamped within it.
func TestFastForwardTimedAxis(t *testing.T) {
	cfg := ffConfig(t, 0.3, 50000, 5151)
	cfg.FastForward = true
	cfg.Time.Enabled = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := res.Elapsed / float64(cfg.Blocks)
	if math.Abs(mean-1) > 0.05 {
		t.Errorf("mean inter-arrival %v, want ~1 (unit static difficulty)", mean)
	}
	if res.SettledTime <= 0 || res.SettledTime > res.Elapsed {
		t.Errorf("settled time %v outside (0, %v]", res.SettledTime, res.Elapsed)
	}
	if res.Early.Duration() <= 0 || res.Steady.Duration() <= 0 {
		t.Errorf("degenerate windows: early %v, steady %v", res.Early.Duration(), res.Steady.Duration())
	}
}

// TestFastForwardRejectsFeedbackDifficulty pins the validation rule: bulk
// stretch sampling is only sound when inter-arrivals are i.i.d., which a
// feedback controller breaks.
func TestFastForwardRejectsFeedbackDifficulty(t *testing.T) {
	cfg := ffConfig(t, 0.3, 1000, 1)
	cfg.FastForward = true
	cfg.Time.Enabled = true
	cfg.Time.Difficulty = difficulty.Params{Rule: difficulty.EIP100}
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
	// The static rule stays allowed.
	cfg.Time.Difficulty = difficulty.Params{Rule: difficulty.Static}
	if _, err := Run(cfg); err != nil {
		t.Errorf("static rule rejected: %v", err)
	}
}

// inertStrategy never adopts, so fast-forward must quietly stand down: the
// run takes the plain path and is bit-identical with the flag on or off.
type inertStrategy struct{}

func (inertStrategy) Name() string                                 { return "inert" }
func (inertStrategy) ReactToPool(ls, lh, published int) Reaction   { return Reaction{} }
func (inertStrategy) ReactToHonest(ls, lh, published int) Reaction { return Reaction{} }

func TestFastForwardDisabledForNonAdoptiveStrategy(t *testing.T) {
	cfg := ffConfig(t, 0.3, 5000, 6161)
	cfg.Strategies = []Strategy{inertStrategy{}}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FastForward = true
	ff, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ff) {
		t.Error("fast-forward engaged for a non-adoptive strategy (results differ from plain)")
	}
}

// TestFastForwardAllHonest covers the alpha = 0 degenerate case: the whole
// run is one stretch.
func TestFastForwardAllHonest(t *testing.T) {
	pop, err := mining.Equal(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Population:  pop,
		Blocks:      10000,
		Seed:        7171,
		FastForward: true,
		Audit:       AuditConfig{Enabled: true, SampleEvery: 256},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RegularCount != cfg.Blocks || res.StaleCount != 0 || res.UncleCount != 0 {
		t.Errorf("all-honest chain settled as %d regular / %d uncle / %d stale, want %d/0/0",
			res.RegularCount, res.UncleCount, res.StaleCount, cfg.Blocks)
	}
	if got := res.Occupancy[core.State{S: 0, H: 0}]; got != int64(cfg.Blocks) {
		t.Errorf("origin occupancy %d, want %d", got, cfg.Blocks)
	}
	if got := res.EventsByPool[0]; got != int64(cfg.Blocks) {
		t.Errorf("honest events %d, want %d", got, cfg.Blocks)
	}
}

// TestFastForwardMultiMemberHonestPool exercises the per-block attribution
// path (no sole honest member): rewards must still conserve under audit and
// all miners must appear.
func TestFastForwardMultiMemberHonestPool(t *testing.T) {
	pop, err := mining.Equal(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Population:  pop,
		Gamma:       0.5,
		Blocks:      20000,
		Seed:        8181,
		FastForward: true,
		Audit:       AuditConfig{Enabled: true, SampleEvery: 128},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	honest := 0
	for id, seen := range res.MinerSeen {
		if seen && !pop.IsSelfish(chain.MinerID(id)) {
			honest++
		}
	}
	if honest != 7 {
		t.Errorf("%d honest miners earned rewards, want all 7", honest)
	}
}
