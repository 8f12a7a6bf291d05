package experiments

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/difficulty"
)

func TestFig8ShapeAndAnchors(t *testing.T) {
	result, err := Fig8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Rows) != 18 {
		t.Fatalf("got %d alpha points, want 18", len(result.Rows))
	}
	// The analytic crossing sits between 0.15 and 0.175 (paper: 0.163).
	threshold := result.Threshold()
	if threshold < 0.15 || threshold > 0.18 {
		t.Errorf("threshold from sweep = %v, want ~0.163", threshold)
	}
	for _, row := range result.Rows {
		// Simulation tracks analysis within a loose quick-mode bound.
		if math.Abs(row.PoolSim-row.PoolAnalytic) > 0.03 {
			t.Errorf("alpha=%v: sim pool %.4f far from analytic %.4f",
				row.Alpha, row.PoolSim, row.PoolAnalytic)
		}
		if math.Abs(row.HonestSim-row.HonestAnalytic) > 0.03 {
			t.Errorf("alpha=%v: sim honest %.4f far from analytic %.4f",
				row.Alpha, row.HonestSim, row.HonestAnalytic)
		}
	}
	// Honest revenue decreases with alpha; pool revenue increases.
	first, last := result.Rows[0], result.Rows[len(result.Rows)-1]
	if last.PoolAnalytic <= first.PoolAnalytic {
		t.Error("pool revenue should grow with alpha")
	}
	if last.HonestAnalytic >= first.HonestAnalytic {
		t.Error("honest revenue should shrink with alpha")
	}
	if !strings.Contains(result.Table().String(), "Fig. 8") {
		t.Error("table missing title")
	}
}

func TestFig9ShapeAndAnchors(t *testing.T) {
	result, err := Fig9(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Schedules) != 4 {
		t.Fatalf("got %d schedules, want 4", len(result.Schedules))
	}
	// Sec. V-B: total revenue soars to ~135% at Ku=7/8, alpha=0.45.
	if got := result.MaxTotal(); math.Abs(got-1.35) > 0.03 {
		t.Errorf("MaxTotal = %v, want ~1.35", got)
	}
	last := result.Rows[len(result.Rows)-1]
	// Higher uncle rewards give higher revenue: columns 0..2 are fixed
	// Ku = 2/8, 4/8, 7/8.
	if !(last.Pool[0] < last.Pool[1] && last.Pool[1] < last.Pool[2]) {
		t.Errorf("pool revenue not increasing in Ku: %v", last.Pool)
	}
	// Sec. V-B: Ku(.) matches flat 7/8 for the pool's revenue (its
	// uncles are always distance 1 and Ku(1) = 7/8).
	if math.Abs(last.Pool[3]-last.Pool[2]) > 0.01 {
		t.Errorf("Ku(.) pool revenue %v should track Ku=7/8's %v", last.Pool[3], last.Pool[2])
	}
	// Sec. V-B: for honest miners at large alpha, Ku(.) sits near the
	// 4/8 curve (average distances grow); it must be clearly below 7/8.
	if !(last.Honest[3] < last.Honest[2]) {
		t.Errorf("Ku(.) honest revenue %v should fall below Ku=7/8's %v",
			last.Honest[3], last.Honest[2])
	}
	if !strings.Contains(result.Table().String(), "Ku=7/8 total") {
		t.Error("table missing series header")
	}
}

func TestFig10ShapeAndAnchors(t *testing.T) {
	result, err := Fig10(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Rows) != 21 {
		t.Fatalf("got %d gamma points, want 21", len(result.Rows))
	}
	// Paper: the scenario-2 curve crosses Bitcoin's near gamma = 0.39.
	crossover := result.Crossover()
	if math.IsNaN(crossover) || crossover < 0.3 || crossover > 0.5 {
		t.Errorf("crossover = %v, want ~0.39", crossover)
	}
	for _, row := range result.Rows {
		if !math.IsNaN(row.Scenario1) && row.Scenario1 >= row.Bitcoin && row.Gamma < 1 {
			t.Errorf("gamma=%v: scenario-1 threshold %.3f not below Bitcoin %.3f",
				row.Gamma, row.Scenario1, row.Bitcoin)
		}
	}
	// Anchors at gamma=0.5 from the paper.
	mid := result.Rows[10]
	if math.Abs(mid.Gamma-0.5) > 1e-9 {
		t.Fatalf("row 10 gamma = %v, want 0.5", mid.Gamma)
	}
	if math.Abs(mid.Bitcoin-0.25) > 1e-9 {
		t.Errorf("Bitcoin threshold at 0.5 = %v, want 0.25", mid.Bitcoin)
	}
	if math.Abs(mid.Scenario1-0.054) > 0.005 {
		t.Errorf("scenario-1 threshold at 0.5 = %v, want ~0.054", mid.Scenario1)
	}
	if math.Abs(mid.Scenario2-0.270) > 0.005 {
		t.Errorf("scenario-2 threshold at 0.5 = %v, want ~0.270", mid.Scenario2)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	result, err := Table2(Options{Runs: 2, Blocks: 100000})
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64][]float64{
		0.30: {0.527, 0.295, 0.111, 0.043, 0.017, 0.007},
		0.45: {0.284, 0.249, 0.171, 0.125, 0.096, 0.075},
	}
	wantMean := map[float64]float64{0.30: 1.75, 0.45: 2.72}
	if len(result.Columns) != 2 {
		t.Fatalf("got %d columns, want 2", len(result.Columns))
	}
	for _, col := range result.Columns {
		paper := want[col.Alpha]
		for d := 1; d <= 6; d++ {
			if math.Abs(col.Analytic.P[d-1]-paper[d-1]) > 0.005 {
				t.Errorf("alpha=%v d=%d: analytic %.3f, paper %.3f",
					col.Alpha, d, col.Analytic.P[d-1], paper[d-1])
			}
		}
		if math.Abs(col.Analytic.Mean()-wantMean[col.Alpha]) > 0.02 {
			t.Errorf("alpha=%v: analytic expectation %.3f, paper %.2f",
				col.Alpha, col.Analytic.Mean(), wantMean[col.Alpha])
		}
		if got := col.Sim.TotalVariation(col.Analytic); got > 0.03 {
			t.Errorf("alpha=%v: sim/analytic total variation %.3f too large", col.Alpha, got)
		}
	}
	if !strings.Contains(result.Table().String(), "Expectation") {
		t.Error("table missing expectation row")
	}
}

func TestSecVIAnchors(t *testing.T) {
	result, err := SecVI(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(result.Rows))
	}
	anchors := map[core.Scenario][2]float64{
		core.Scenario1: {0.054, 0.163},
		core.Scenario2: {0.270, 0.356},
	}
	for _, row := range result.Rows {
		want := anchors[row.Scenario]
		if math.Abs(row.Ethereum-want[0]) > 0.005 {
			t.Errorf("%v: Ethereum threshold %.3f, paper %.3f", row.Scenario, row.Ethereum, want[0])
		}
		if math.Abs(row.Redesigned-want[1]) > 0.005 {
			t.Errorf("%v: redesigned threshold %.3f, paper %.3f", row.Scenario, row.Redesigned, want[1])
		}
	}
}

func TestStaticTables(t *testing.T) {
	if got := Table1().String(); !strings.Contains(got, "Uncle Reward") {
		t.Error("Table I missing uncle reward row")
	}
	if got := Fig6().String(); !strings.Contains(got, "Ethermine") || !strings.Contains(got, "26.34%") {
		t.Error("Fig. 6 missing Ethermine share")
	}
}

func TestFig7Dump(t *testing.T) {
	tab, err := Fig7(0.3, 0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, state := range []string{"(0,0)", "(1,1)", "(4,2)"} {
		if !strings.Contains(out, state) {
			t.Errorf("Fig. 7 dump missing state %s:\n%s", state, out)
		}
	}
	// ethselfish fig7, pinned byte for byte.
	tab, err = Fig7(0.3, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := tab.Render(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fig7.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Fig. 7 dump differs from testdata/fig7.txt:\n%s", got.Bytes())
	}
	if _, err := Fig7(0.3, 0.5, 2); err == nil {
		t.Error("maxLead=2 should fail")
	}
	if _, err := Fig7(0.9, 0.5, 6); err == nil {
		t.Error("alpha=0.9 should fail")
	}
}

// TestDiffAblation is the engine-vs-oracle agreement test: the
// engine-integrated controller's steady-state reward rate must match the
// closed-form difficulty.PredictedRewardRate for both adjusting rules, and
// each rule must hold its counted rate at the target.
func TestDiffAblation(t *testing.T) {
	result, err := DiffAblation(Options{Runs: 4, Blocks: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(result.Rows))
	}
	bitcoin, eip := result.Rows[0], result.Rows[1]
	if bitcoin.Rule != difficulty.BitcoinStyle || eip.Rule != difficulty.EIP100 {
		t.Fatalf("row order = %v, %v", bitcoin.Rule, eip.Rule)
	}
	// Each rule pins its own counted rate at the target.
	if math.Abs(bitcoin.RegularRate-1) > 0.05 {
		t.Errorf("bitcoin-style regular rate %.3f, want ~1", bitcoin.RegularRate)
	}
	if got := eip.RegularRate + eip.UncleRate; math.Abs(got-1) > 0.05 {
		t.Errorf("eip100 regular+uncle rate %.3f, want ~1", got)
	}
	// The paper's point: the uncle-blind rule lets selfish mining inflate
	// issuance; EIP100 keeps it bounded.
	if bitcoin.RewardRate <= eip.RewardRate {
		t.Errorf("bitcoin-style reward rate %.3f should exceed eip100's %.3f",
			bitcoin.RewardRate, eip.RewardRate)
	}
	// Agreement with the closed-form oracle, within statistical tolerance.
	for _, row := range result.Rows {
		if math.Abs(row.RewardRate-row.Predicted) > 0.03*row.Predicted {
			t.Errorf("%v: steady reward rate %.4f far from predicted %.4f",
				row.Rule, row.RewardRate, row.Predicted)
		}
	}
	if !strings.Contains(result.Table().String(), "eip100") {
		t.Error("ablation table missing eip100 row")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Fig8(Options{Runs: -1}); err == nil {
		t.Error("negative runs should fail")
	}
	if _, err := Table2(Options{Blocks: -1}); err == nil {
		t.Error("negative blocks should fail")
	}
}

func TestStrategiesComparison(t *testing.T) {
	result, err := Strategies(Options{Runs: 2, Blocks: 40000})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Names) != 5 || len(result.Rows) != 4 {
		t.Fatalf("shape = %d names x %d rows", len(result.Names), len(result.Rows))
	}
	for _, row := range result.Rows {
		honest := row.Revenue[0]
		if math.Abs(honest-row.Alpha) > 0.01 {
			t.Errorf("alpha=%v: honest control earned %v, want ~alpha", row.Alpha, honest)
		}
		// Above the threshold (0.054) Algorithm 1 must beat the honest
		// control.
		if row.Alpha > 0.1 && row.Revenue[1] <= honest {
			t.Errorf("alpha=%v: Algorithm 1 (%v) did not beat honest (%v)",
				row.Alpha, row.Revenue[1], honest)
		}
	}
	// At the top alpha the winner should not be the honest control.
	if best := result.Best(len(result.Rows) - 1); best == "honest" {
		t.Errorf("best strategy at alpha=0.45 = %q", best)
	}
	if !strings.Contains(result.Table().String(), "stubborn:lead=1") {
		t.Error("table missing stubborn:lead=1 column")
	}
}

func TestPoolWars(t *testing.T) {
	result, err := PoolWars(Options{Runs: 2, Blocks: 40000})
	if err != nil {
		t.Fatal(err)
	}
	homo, hetero := result.Homogeneous(), result.Heterogeneous()
	if len(homo) != 9 || len(hetero) != 3 {
		t.Fatalf("shape = %d homogeneous + %d heterogeneous rows", len(homo), len(hetero))
	}
	for _, row := range result.Rows {
		if row.Pool1 <= 0 || row.Pool2 <= 0 || row.Honest <= 0 {
			t.Errorf("%.2fx%.2f (%s/%s): degenerate revenues %v/%v/%v",
				row.Alpha1, row.Alpha2, row.Strategy1, row.Strategy2,
				row.Pool1, row.Pool2, row.Honest)
		}
	}
	// Symmetric homogeneous points must treat the pools symmetrically.
	// The tolerance is wide: at 2 runs x 40k blocks the per-pool noise
	// is a few percent (at 20 x 100k the gap closes to under 1e-3).
	for _, row := range homo {
		if row.Alpha1 == row.Alpha2 && math.Abs(row.Pool1-row.Pool2) > 0.05 {
			t.Errorf("symmetric point %.2f: pool revenues %v vs %v",
				row.Alpha1, row.Pool1, row.Pool2)
		}
	}
	// Two large Algorithm-1 pools waste far more blocks than small ones.
	byKey := make(map[string]PoolWarsRow)
	for _, row := range homo {
		byKey[fmt.Sprintf("%.2f-%.2f", row.Alpha1, row.Alpha2)] = row
	}
	if small, big := byKey["0.10-0.10"], byKey["0.30-0.30"]; big.StaleFraction <= small.StaleFraction {
		t.Errorf("stale fraction %v at 0.30x0.30 vs %v at 0.10x0.10; rivalry should scale",
			big.StaleFraction, small.StaleFraction)
	}
	// In the heterogeneous rows the control pool mines honestly: its
	// per-power revenue rate matches the honest crowd's.
	for _, row := range hetero {
		if row.Strategy2 != "honest" {
			t.Fatalf("hetero row strategy2 = %q", row.Strategy2)
		}
		crowdPower := 1 - row.Alpha1 - row.Alpha2
		if math.Abs(row.Pool2/row.Alpha2-row.Honest/crowdPower) > 0.08 {
			t.Errorf("alpha1=%.2f: control rate %v differs from crowd rate %v",
				row.Alpha1, row.Pool2/row.Alpha2, row.Honest/crowdPower)
		}
	}
	if !strings.Contains(result.Table().String(), "algorithm1/honest") {
		t.Error("table missing heterogeneous rows")
	}
}
