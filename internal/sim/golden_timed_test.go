package sim

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
)

// The timed path gets its own golden file: testdata/golden_timed.json pins
// every timeless fingerprint field plus the clock, the difficulty
// trajectory and both settlement windows of timed runs under each
// difficulty rule, generated on the engine that
// first shared one race walk across clock overlays. Regenerate with
//
//	go test ./internal/sim -run TestGoldenTimed -update
//
// only for a deliberate, documented stream change.
const goldenTimedPath = "testdata/golden_timed.json"

// goldenWindow is one settlement window with its time bounds in exact hex
// float64 notation.
type goldenWindow struct {
	Start   string         `json:"start"`
	End     string         `json:"end"`
	Regular int            `json:"regular"`
	Uncles  int            `json:"uncles"`
	ByPool  []goldenReward `json:"byPool"`
}

func toGoldenWindow(w Window) goldenWindow {
	gw := goldenWindow{Start: hexFloat(w.Start), End: hexFloat(w.End), Regular: w.Regular, Uncles: w.Uncles}
	for _, r := range w.ByPool {
		gw.ByPool = append(gw.ByPool, toGoldenReward(r))
	}
	return gw
}

// goldenTimedFingerprint is goldenFingerprint plus every time-axis field.
type goldenTimedFingerprint struct {
	goldenFingerprint
	Elapsed         string       `json:"elapsed"`
	SettledTime     string       `json:"settledTime"`
	FinalDifficulty string       `json:"finalDifficulty"`
	Retargets       int          `json:"retargets"`
	Early           goldenWindow `json:"early"`
	Steady          goldenWindow `json:"steady"`
}

func timedFingerprint(r Result) goldenTimedFingerprint {
	return goldenTimedFingerprint{
		goldenFingerprint: fingerprint(r),
		Elapsed:           hexFloat(r.Elapsed),
		SettledTime:       hexFloat(r.SettledTime),
		FinalDifficulty:   hexFloat(r.FinalDifficulty),
		Retargets:         r.Retargets,
		Early:             toGoldenWindow(r.Early),
		Steady:            toGoldenWindow(r.Steady),
	}
}

// goldenTimedCases lists the pinned timed configurations by name.
func goldenTimedCases(t *testing.T) map[string]Config {
	t.Helper()
	one, err := mining.TwoAgent(0.35)
	if err != nil {
		t.Fatal(err)
	}
	two, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	timed := func(pop *mining.Population, sched rewards.Schedule, p difficulty.Params) Config {
		return Config{Population: pop, Gamma: 0.5, Schedule: sched, Blocks: 20000, Seed: 7,
			Time: TimeConfig{Enabled: true, Difficulty: p}}
	}
	eth, nodepth := rewards.Ethereum(), noDepthSchedule()
	cases := map[string]Config{
		"1pool-ethereum-static":           timed(one, eth, difficulty.Params{}),
		"2pool-nodepth-static":            timed(two, nodepth, difficulty.Params{}),
		"1pool-ethereum-bitcoinstyle":     timed(one, eth, difficulty.Params{Rule: difficulty.BitcoinStyle}),
		"2pool-ethereum-bitcoinstyle":     timed(two, eth, difficulty.Params{Rule: difficulty.BitcoinStyle}),
		"1pool-ethereum-eip100":           timed(one, eth, difficulty.Params{Rule: difficulty.EIP100}),
		"1pool-nodepth-eip100":            timed(one, nodepth, difficulty.Params{Rule: difficulty.EIP100}),
		"2pool-nodepth-eip100":            timed(two, nodepth, difficulty.Params{Rule: difficulty.EIP100}),
		"1pool-ethereum-eip100-unclecap2": timed(one, eth, difficulty.Params{Rule: difficulty.EIP100}),
	}
	capped := cases["1pool-ethereum-eip100-unclecap2"]
	capped.MaxUnclesPerBlock = 2
	cases["1pool-ethereum-eip100-unclecap2"] = capped
	return cases
}

// TestGoldenTimed pins the timed path (static, Bitcoin-style and EIP100
// clocks) bit for bit.
func TestGoldenTimed(t *testing.T) {
	got := make(map[string]goldenTimedFingerprint)
	for name, cfg := range goldenTimedCases(t) {
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = timedFingerprint(r)
	}

	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTimedPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), goldenTimedPath)
		return
	}

	raw, err := os.ReadFile(goldenTimedPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var want map[string]goldenTimedFingerprint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d fingerprints, test produced %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from golden file (regenerate with -update)", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			gj, _ := json.Marshal(g)
			wj, _ := json.Marshal(w)
			t.Errorf("%s: fingerprint diverges:\n got: %s\nwant: %s", name, gj, wj)
		}
	}
}
