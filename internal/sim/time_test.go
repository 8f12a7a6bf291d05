package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
)

func timedConfig(t *testing.T, alpha float64, blocks int, rule difficulty.Rule) Config {
	t.Helper()
	pop, err := mining.TwoAgent(alpha)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Population: pop,
		Gamma:      0.5,
		Blocks:     blocks,
		Seed:       11,
		Time: TimeConfig{
			Enabled:    true,
			Difficulty: difficulty.Params{Rule: rule},
		},
	}
}

// TestTimeOverlayPreservesRace pins the overlay property: enabling the time
// axis (any difficulty rule) consumes randomness only from the dedicated
// time stream, so the block tree, rewards, and occupancy of a timed run are
// identical to the timeless run at the same seed.
func TestTimeOverlayPreservesRace(t *testing.T) {
	for _, rule := range difficulty.Rules() {
		timeless := timedConfig(t, 0.35, 20000, rule)
		timeless.Time = TimeConfig{}
		base, err := Run(timeless)
		if err != nil {
			t.Fatal(err)
		}
		timed, err := Run(timedConfig(t, 0.35, 20000, rule))
		if err != nil {
			t.Fatal(err)
		}
		if timed.Elapsed <= 0 || timed.SettledTime <= 0 {
			t.Fatalf("%v: timed run has elapsed %v, settled time %v", rule, timed.Elapsed, timed.SettledTime)
		}
		if base.Elapsed != 0 || base.SettledTime != 0 {
			t.Fatal("timeless run reported nonzero time")
		}
		// Strip the time-only fields; the race outcome must be identical.
		stripped := timed
		stripped.Elapsed, stripped.SettledTime = 0, 0
		stripped.InitialDifficulty, stripped.FinalDifficulty = 0, 0
		stripped.Retargets = 0
		stripped.Early, stripped.Steady = Window{}, Window{}
		if !reflect.DeepEqual(base, stripped) {
			t.Errorf("%v: timed run's race outcome differs from the timeless run", rule)
		}
	}
}

// TestTimedTimestampsMonotone checks the tree invariant: along every
// branch, timestamps never decrease, and every non-genesis block of a timed
// run is stamped after genesis.
func TestTimedTimestampsMonotone(t *testing.T) {
	cfg := timedConfig(t, 0.4, 5000, difficulty.EIP100)
	_, tree, err := RunTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id < tree.Len(); id++ {
		b := chain.BlockID(id)
		if tree.TimeOf(b) < tree.TimeOf(tree.ParentOf(b)) {
			t.Fatalf("block %d at %v is earlier than its parent at %v",
				id, tree.TimeOf(b), tree.TimeOf(tree.ParentOf(b)))
		}
		if tree.TimeOf(b) <= 0 {
			t.Fatalf("block %d has non-positive timestamp %v", id, tree.TimeOf(b))
		}
	}
}

// TestStaticDifficultyPacesClock: with static difficulty d and unit hash
// power, events arrive at rate 1/d, so the elapsed time of n events
// concentrates around n*d.
func TestStaticDifficultyPacesClock(t *testing.T) {
	cfg := timedConfig(t, 0.3, 20000, difficulty.Static)
	result, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const d = difficulty.InitialDifficulty
	want := d * float64(cfg.Blocks)
	if math.Abs(result.Elapsed-want)/want > 0.05 {
		t.Errorf("elapsed %v, want ~%v", result.Elapsed, want)
	}
	if result.InitialDifficulty != d || result.FinalDifficulty != d || result.Retargets != 0 {
		t.Errorf("static run ended at difficulty %v after %d retargets",
			result.FinalDifficulty, result.Retargets)
	}
}

// TestControllerConvergesInEngine closes the loop end to end: under the
// Bitcoin-style rule the steady-state settled regular rate converges to
// the target; under EIP100 the regular-plus-uncle rate does.
func TestControllerConvergesInEngine(t *testing.T) {
	btc, err := Run(timedConfig(t, 0.35, 60000, difficulty.BitcoinStyle))
	if err != nil {
		t.Fatal(err)
	}
	if rate := btc.Steady.RegularRate(); math.Abs(rate-1) > 0.05 {
		t.Errorf("bitcoin-style steady regular rate %v, want ~1", rate)
	}
	if btc.Retargets == 0 {
		t.Error("bitcoin-style run never retargeted")
	}

	eip, err := Run(timedConfig(t, 0.35, 60000, difficulty.EIP100))
	if err != nil {
		t.Fatal(err)
	}
	if rate := eip.Steady.RegularRate() + eip.Steady.UncleRate(); math.Abs(rate-1) > 0.05 {
		t.Errorf("eip100 steady regular+uncle rate %v, want ~1", rate)
	}
	// Selfish mining orphans pool blocks into uncles: pinning the regular
	// rate alone (Bitcoin-style) pays the uncles on top, so issuance
	// inflates past the uncle-counting rule's.
	if btc.Steady.TotalRate() <= eip.Steady.TotalRate() {
		t.Errorf("bitcoin-style steady reward rate %v should exceed eip100's %v",
			btc.Steady.TotalRate(), eip.Steady.TotalRate())
	}
}

// TestWindowsPartitionSettledChain: the early window covers the first
// epoch of settled blocks and the steady window everything above the
// midpoint floor, which sits near the middle of the settled chain; their
// tallies must be consistent with the whole-run settlement.
func TestWindowsPartitionSettledChain(t *testing.T) {
	cfg := timedConfig(t, 0.35, 20000, difficulty.BitcoinStyle)
	s, result, err := traceRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if result.Early.Regular != difficulty.DefaultEpoch {
		t.Errorf("early window has %d regular blocks, want the epoch %d", result.Early.Regular, difficulty.DefaultEpoch)
	}
	mid := s.str.steadyHeight
	if want := result.RegularCount - mid; result.Steady.Regular != want {
		t.Errorf("steady window has %d regular blocks, want the %d above the midpoint floor",
			result.Steady.Regular, want)
	}
	// The floor at event Blocks/2 settles about half of the final chain.
	if half := result.RegularCount / 2; mid < half*9/10 || mid > half*11/10 {
		t.Errorf("midpoint floor at height %d, want near half the settled chain (%d)", mid, half)
	}
	if result.Early.End <= result.Early.Start || result.Steady.End <= result.Steady.Start {
		t.Error("window time bounds are degenerate")
	}
	if result.Steady.End != result.SettledTime {
		t.Errorf("steady window ends at %v, settled time is %v", result.Steady.End, result.SettledTime)
	}
	// Window tallies never exceed the full settlement's.
	for pool, reward := range result.Steady.ByPool {
		if reward.Total() > result.ByPool[pool].Total()+1e-9 {
			t.Errorf("pool %d steady window reward %v exceeds run total %v",
				pool, reward.Total(), result.ByPool[pool].Total())
		}
	}
	// Rates are finite and positive on a converged run.
	if result.Steady.RateOf(1) <= 0 || result.TotalRate() <= 0 {
		t.Error("degenerate steady rates")
	}
}

// TestTimedRunnerReuse extends the Runner-reuse contract to timed
// configurations: reusing one Runner across heterogeneous timed and
// timeless runs is bit-identical to fresh simulators.
func TestTimedRunnerReuse(t *testing.T) {
	configs := []Config{
		timedConfig(t, 0.35, 3000, difficulty.EIP100),
		timedConfig(t, 0.25, 3000, difficulty.Static),
		func() Config { c := timedConfig(t, 0.3, 3000, difficulty.BitcoinStyle); c.Seed = 99; return c }(),
		func() Config {
			c := timedConfig(t, 0.3, 3000, difficulty.BitcoinStyle)
			c.Time = TimeConfig{}
			return c
		}(),
		timedConfig(t, 0.35, 3000, difficulty.EIP100), // repeat: controller Reset path
	}
	reused := NewRunner()
	for i, cfg := range configs {
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reused.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, got) {
			t.Errorf("config %d: reused Runner diverged from fresh run", i)
		}
	}
}

// TestTimedConfigValidation rejects an unknown difficulty rule through the
// simulator's own validation.
func TestTimedConfigValidation(t *testing.T) {
	cfg := timedConfig(t, 0.3, 100, difficulty.Rule(42))
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown rule: err = %v, want ErrBadConfig", err)
	}
}
