package difficulty

import (
	"errors"
	"math"
	"testing"

	"github.com/ethselfish/ethselfish/internal/rewards"
)

func TestParamsValidation(t *testing.T) {
	tests := []struct {
		name string
		p    Params
	}{
		{"unknown rule", Params{Rule: Rule(99)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewController(tt.p); !errors.Is(err, ErrBadController) {
				t.Errorf("err = %v, want ErrBadController", err)
			}
		})
	}
}

func TestParamsDefaults(t *testing.T) {
	c, err := NewController(Params{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Rule() != Static {
		t.Errorf("zero Params rule = %v, want static", c.Rule())
	}
	if c.Difficulty() != InitialDifficulty || InitialDifficulty != 1 {
		t.Errorf("initial difficulty = %v, want 1", c.Difficulty())
	}
}

func TestStaticNeverAdjusts(t *testing.T) {
	c, err := NewController(Params{Rule: Static})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		c.ObserveBlock(float64(i)*0.01, 2) // blocks 100x too fast
	}
	if c.Difficulty() != 1 || c.Retargets() != 0 {
		t.Errorf("static difficulty %v after %d retargets, want 1 after 0",
			c.Difficulty(), c.Retargets())
	}
}

// feedRegular feeds n settled blocks at fixed spacing with the given uncle
// count each, continuing from the controller's last timestamp.
func feedRegular(c *Controller, start float64, n int, spacing float64, uncles int) float64 {
	at := start
	for i := 0; i < n; i++ {
		at += spacing
		c.ObserveBlock(at, uncles)
	}
	return at
}

func TestBitcoinStyleEpochRetarget(t *testing.T) {
	c, err := NewController(Params{Rule: BitcoinStyle})
	if err != nil {
		t.Fatal(err)
	}
	// One block short of the epoch: no retarget yet.
	at := feedRegular(c, 0, DefaultEpoch-1, 0.5, 7)
	if c.Retargets() != 0 || c.Difficulty() != 1 {
		t.Fatalf("retargeted before the epoch boundary: %d at difficulty %v",
			c.Retargets(), c.Difficulty())
	}
	// The last block closes the epoch: DefaultEpoch blocks at spacing 0.5
	// is rate 2, twice the target, so difficulty doubles. Uncle counts
	// must be ignored by the uncle-blind rule.
	at = feedRegular(c, at, 1, 0.5, 7)
	if c.Retargets() != 1 {
		t.Fatalf("retargets = %d, want 1", c.Retargets())
	}
	if math.Abs(c.Difficulty()-2) > 1e-12 {
		t.Errorf("difficulty = %v, want 2", c.Difficulty())
	}
	// A slow epoch (rate 1/2) halves it back.
	feedRegular(c, at, DefaultEpoch, 2, 0)
	if math.Abs(c.Difficulty()-1) > 1e-12 {
		t.Errorf("difficulty = %v, want 1", c.Difficulty())
	}
}

func TestBitcoinStyleRetargetClamped(t *testing.T) {
	c, err := NewController(Params{Rule: BitcoinStyle})
	if err != nil {
		t.Fatal(err)
	}
	at := feedRegular(c, 0, DefaultEpoch, 1e-6, 0) // ~1e6x too fast: clamped to 4x
	if math.Abs(c.Difficulty()-4) > 1e-12 {
		t.Errorf("difficulty = %v, want clamped 4", c.Difficulty())
	}
	feedRegular(c, at, DefaultEpoch, 1e6, 0) // ~1e-6x too slow: clamped to /4
	if math.Abs(c.Difficulty()-1) > 1e-12 {
		t.Errorf("difficulty = %v, want clamped 1", c.Difficulty())
	}
}

func TestEIP100PerBlockDirectionAndEquilibrium(t *testing.T) {
	c, err := NewController(Params{Rule: EIP100})
	if err != nil {
		t.Fatal(err)
	}
	// Blocks at twice the target counted rate push difficulty up,
	// one adjustment per block.
	at := feedRegular(c, 0, DefaultEpoch, 0.5, 0)
	if c.Retargets() != DefaultEpoch {
		t.Fatalf("retargets = %d, want %d (one per block)", c.Retargets(), DefaultEpoch)
	}
	if c.Difficulty() <= 1 {
		t.Errorf("difficulty %v did not rise under too-fast blocks", c.Difficulty())
	}
	// At exactly the target rate (counting uncles: 2 counted per 2 time
	// units) the error term is zero and difficulty freezes.
	before := c.Difficulty()
	at = feedRegular(c, at, 100, 2, 1)
	if got := c.Difficulty(); got != before {
		t.Errorf("difficulty moved from %v to %v at the exact target rate", before, got)
	}
	// Too-slow blocks push it down.
	feedRegular(c, at, DefaultEpoch, 4, 0)
	if c.Difficulty() >= before {
		t.Errorf("difficulty %v did not fall under too-slow blocks", c.Difficulty())
	}
}

func TestEIP100StepClamped(t *testing.T) {
	c, err := NewController(Params{Rule: EIP100})
	if err != nil {
		t.Fatal(err)
	}
	// A very late block makes the raw step 1 + (1-1000)/DefaultEpoch,
	// below zero: it must clamp to halving rather than going negative.
	c.ObserveBlock(1000, 0)
	if math.Abs(c.Difficulty()-0.5) > 1e-12 {
		t.Errorf("difficulty = %v, want clamped 0.5", c.Difficulty())
	}
	// A block at zero spacing counting far more than an epoch of uncles
	// raises the raw step past 2: it clamps to doubling.
	c.ObserveBlock(1000, 2*DefaultEpoch)
	if math.Abs(c.Difficulty()-1) > 1e-12 {
		t.Errorf("difficulty = %v, want clamped back to 1", c.Difficulty())
	}
}

func TestControllerReset(t *testing.T) {
	c, err := NewController(Params{Rule: EIP100})
	if err != nil {
		t.Fatal(err)
	}
	feedRegular(c, 0, 50, 0.1, 1)
	if c.Difficulty() == 1 {
		t.Fatal("difficulty did not move; test is vacuous")
	}
	c.Reset()
	if c.Difficulty() != 1 || c.Retargets() != 0 {
		t.Errorf("after Reset: difficulty %v, retargets %d; want 1, 0",
			c.Difficulty(), c.Retargets())
	}
	// A reset controller reproduces the original trajectory exactly.
	fresh, err := NewController(Params{Rule: EIP100})
	if err != nil {
		t.Fatal(err)
	}
	feedRegular(c, 0, 50, 0.1, 1)
	feedRegular(fresh, 0, 50, 0.1, 1)
	if c.Difficulty() != fresh.Difficulty() {
		t.Errorf("reset trajectory %v, fresh %v", c.Difficulty(), fresh.Difficulty())
	}
}

func TestRuleNamesAndParse(t *testing.T) {
	if Static.String() != "static" || BitcoinStyle.String() != "bitcoin-style" || EIP100.String() != "eip100" {
		t.Error("rule names wrong")
	}
	for _, tc := range []struct {
		in   string
		want Rule
	}{
		{"static", Static}, {"bitcoin", BitcoinStyle}, {"bitcoin-style", BitcoinStyle}, {"eip100", EIP100},
	} {
		got, err := ParseRule(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseRule(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseRule("bogus"); !errors.Is(err, ErrBadController) {
		t.Error("ParseRule accepted a bogus rule")
	}
	if got := Rules(); len(got) != 3 || got[0] != Static || got[1] != BitcoinStyle || got[2] != EIP100 {
		t.Errorf("Rules() = %v", got)
	}
}

func TestObserveBlockAllocationFree(t *testing.T) {
	for _, rule := range []Rule{Static, BitcoinStyle, EIP100} {
		c, err := NewController(Params{Rule: rule})
		if err != nil {
			t.Fatal(err)
		}
		at := 0.0
		if allocs := testing.AllocsPerRun(1000, func() {
			at++
			c.ObserveBlock(at, 1)
		}); allocs != 0 {
			t.Errorf("%v: ObserveBlock allocates %v per call, want 0", rule, allocs)
		}
	}
}

func TestPredictedRewardRate(t *testing.T) {
	schedule := rewards.Ethereum()
	btc, err := PredictedRewardRate(BitcoinStyle, 0.35, 0.5, schedule)
	if err != nil {
		t.Fatal(err)
	}
	eip, err := PredictedRewardRate(EIP100, 0.35, 0.5, schedule)
	if err != nil {
		t.Fatal(err)
	}
	// Scenario 1 pays uncle rewards on top of a pinned regular rate, so
	// issuance inflates past the all-honest rate; scenario 2 folds uncles
	// into the counted rate and stays at or below scenario 1.
	if btc <= 1 {
		t.Errorf("bitcoin-style predicted rate %v, want > 1 (inflated issuance)", btc)
	}
	if eip >= btc {
		t.Errorf("eip100 predicted rate %v should be below bitcoin-style's %v", eip, btc)
	}
	if _, err := PredictedRewardRate(Static, 0.35, 0.5, schedule); !errors.Is(err, ErrBadController) {
		t.Error("Static must have no closed-form prediction")
	}
}
