package ethselfish

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestAnalyzeBasics(t *testing.T) {
	a, err := Analyze(0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rev := a.Revenue()
	if rev.Pool(Scenario1) <= 0.3 {
		t.Errorf("pool revenue %v should beat alpha=0.3 (threshold 0.054)", rev.Pool(Scenario1))
	}
	if !a.Profitable(Scenario1) {
		t.Error("alpha=0.3 should be profitable in scenario 1")
	}
	if a.Profitable(Scenario2) != (rev.Pool(Scenario2) > 0.3) {
		t.Error("Profitable disagrees with Revenue")
	}
	if got := rev.Pool(Scenario1) + rev.Honest(Scenario1); math.Abs(got-rev.Total(Scenario1)) > 1e-12 {
		t.Error("pool + honest != total")
	}
	if share := rev.PoolShare(); share <= 0 || share >= 1 {
		t.Errorf("pool share %v out of (0,1)", share)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(0.6, 0.5); err == nil {
		t.Error("alpha=0.6 should fail")
	}
	if _, err := Analyze(0.3, 2); err == nil {
		t.Error("gamma=2 should fail")
	}
}

func TestSchedules(t *testing.T) {
	eth := EthereumSchedule()
	if got := eth.UncleReward(1); got != 7.0/8 {
		t.Errorf("Ethereum Ku(1) = %v, want 7/8", got)
	}
	if got := eth.NephewReward(3); got != 1.0/32 {
		t.Errorf("Ethereum Kn(3) = %v, want 1/32", got)
	}
	flat, err := ConstantSchedule(0.5, NoDepthLimit)
	if err != nil {
		t.Fatal(err)
	}
	if got := flat.UncleReward(100); got != 0.5 {
		t.Errorf("flat Ku(100) = %v, want 0.5", got)
	}
	if _, err := ConstantSchedule(-1, 6); err == nil {
		t.Error("negative Ku should fail")
	}
	btc := BitcoinSchedule()
	if btc.UncleReward(1) != 0 || btc.NephewReward(1) != 0 {
		t.Error("Bitcoin schedule should pay nothing")
	}
}

func TestProfitThresholdAnchors(t *testing.T) {
	got, err := ProfitThreshold(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.054) > 0.005 {
		t.Errorf("threshold = %v, want ~0.054", got)
	}
	got, err = ProfitThreshold(0.5, WithScenario(Scenario2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.270) > 0.005 {
		t.Errorf("scenario-2 threshold = %v, want ~0.270", got)
	}
	flat, err := ConstantSchedule(0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, err = ProfitThreshold(0.5, WithSchedule(flat))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.163) > 0.005 {
		t.Errorf("flat-Ku threshold = %v, want ~0.163", got)
	}
}

func TestBitcoinThreshold(t *testing.T) {
	got, err := BitcoinThreshold(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Bitcoin threshold = %v, want 0.25", got)
	}
}

func TestSimulateMatchesAnalyze(t *testing.T) {
	const (
		alpha = 0.35
		gamma = 0.5
	)
	simResult, err := Simulate(alpha, gamma, 100000, WithSeed(7), WithRuns(3))
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := Analyze(alpha, gamma)
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.Revenue().Pool(Scenario1)
	if math.Abs(simResult.PoolRevenue-want) > 0.01 {
		t.Errorf("simulated %v vs analytic %v", simResult.PoolRevenue, want)
	}
	if simResult.RegularBlocks == 0 || simResult.UncleBlocks == 0 {
		t.Error("expected settled blocks")
	}
	if len(simResult.UncleDistances) != 6 {
		t.Errorf("got %d distance entries, want 6", len(simResult.UncleDistances))
	}
	if simResult.PoolRevenueScenario2 >= simResult.PoolRevenue {
		t.Error("scenario-2 revenue should be below scenario-1")
	}
}

func TestSimulateWithMiners(t *testing.T) {
	// The pool gets floor(n*alpha) miners, so an alpha that is a multiple
	// of 1/n is realized exactly even where n*alpha rounds below an
	// integer in float64 (100*0.29 and 100*0.57 do).
	tests := []struct {
		alpha  float64
		miners int
	}{
		{0.3, 1000},
		{0.29, 100},
		{0.57, 100},
	}
	for _, tt := range tests {
		t.Run(fmt.Sprintf("%vx%d", tt.alpha, tt.miners), func(t *testing.T) {
			result, err := Simulate(tt.alpha, 0.5, 20000, WithMiners(tt.miners), WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(result.Alpha-tt.alpha) > 1e-9 {
				t.Errorf("realized alpha = %v, want %v", result.Alpha, tt.alpha)
			}
		})
	}
}

func TestSimulateWithUncleLimit(t *testing.T) {
	result, err := Simulate(0.4, 0.5, 20000, WithUncleLimit(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if result.UncleBlocks == 0 {
		t.Error("expected uncles with the Ethereum limit")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(0.3, 0.5, 0); err == nil {
		t.Error("zero blocks should fail")
	}
	if _, err := Simulate(0, 0.5, 100); err == nil {
		t.Error("alpha=0 should fail")
	}
}

func TestStateProbability(t *testing.T) {
	a, err := Analyze(0.4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pi00 := a.StateProbability(0, 0)
	if pi00 <= 0 || pi00 >= 1 {
		t.Errorf("pi(0,0) = %v out of (0,1)", pi00)
	}
	if got := a.StateProbability(2, 1); got != 0 {
		t.Errorf("invalid state probability = %v, want 0", got)
	}
}

func TestScenarioString(t *testing.T) {
	if Scenario1.String() != "scenario1" || Scenario2.String() != "scenario2" {
		t.Error("scenario names wrong")
	}
}

func TestWithStrategyVariants(t *testing.T) {
	honest, err := Simulate(0.3, 0.5, 20000, WithSeed(3), WithStrategy("honest"))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(honest.PoolRevenue-0.3) > 0.02 {
		t.Errorf("honest strategy revenue %v, want ~alpha", honest.PoolRevenue)
	}
	stubborn, err := Simulate(0.3, 0.5, 20000, WithSeed(3), WithStrategy("trail-stubborn"))
	if err != nil {
		t.Fatal(err)
	}
	if stubborn.PoolRevenue == honest.PoolRevenue {
		t.Error("strategies produced identical revenue")
	}
	if _, err := Simulate(0.3, 0.5, 100, WithStrategy("eager-publish-3")); err != nil {
		t.Errorf("eager-publish-3 should parse: %v", err)
	}
}

func TestWithStrategyUnknown(t *testing.T) {
	if _, err := Simulate(0.3, 0.5, 100, WithStrategy("nonsense")); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("err = %v, want ErrUnknownStrategy", err)
	}
	if _, err := Simulate(0.3, 0.5, 100, WithStrategy("eager-publish-1")); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("eager-publish-1 err = %v, want ErrUnknownStrategy", err)
	}
}

func TestParseStrategyNames(t *testing.T) {
	for _, name := range []string{"", "algorithm1", "honest", "trail-stubborn", "eager-publish-2"} {
		if _, err := ParseStrategy(name); err != nil {
			t.Errorf("ParseStrategy(%q): %v", name, err)
		}
	}
	for _, name := range []string{"x", "eager-publish-", "eager-publish-0"} {
		if _, err := ParseStrategy(name); err == nil {
			t.Errorf("ParseStrategy(%q) should fail", name)
		}
	}
}
