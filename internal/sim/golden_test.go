package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/stats"
)

// The timeless (no time axis, no difficulty controller) path of the engine
// must stay bit-identical across refactors: testdata/golden_timeless.json
// pins exact reward tallies, block classifications, occupancy checksums and
// uncle-distance checksums produced by the engine before the continuous-time
// refactor, across gamma in {0, 0.5, 1}, both reward schedules, uncle caps,
// and one- and two-pool populations. The unbounded-depth cases (reference
// window 64, the schedule of the paper's Fig. 8) were added later, generated on the engine that preceded the floor-anchored
// chain index. Regenerate with
//
//	go test ./internal/sim -run TestGoldenTimeless -update
//
// only when a deliberate, documented stream change is made (none so far
// since the alias-table sampler landed).
var updateGolden = flag.Bool("update", false, "regenerate golden fingerprints")

const goldenPath = "testdata/golden_timeless.json"

// goldenReward is one reward tally with every component in exact hex
// float64 notation, so a single ULP of drift fails the comparison.
type goldenReward struct {
	Static string `json:"static"`
	Uncle  string `json:"uncle"`
	Nephew string `json:"nephew"`
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func toGoldenReward(r chain.Reward) goldenReward {
	return goldenReward{Static: hexFloat(r.Static), Uncle: hexFloat(r.Uncle), Nephew: hexFloat(r.Nephew)}
}

// goldenFingerprint summarizes one run exactly: per-pool tallies, block
// classes, an order-independent occupancy checksum per pool, and an
// order-independent checksum of each camp's uncle-distance distribution
// (pool camp first).
type goldenFingerprint struct {
	ByPool        []goldenReward `json:"byPool"`
	Regular       int            `json:"regular"`
	Uncles        int            `json:"uncles"`
	Stale         int            `json:"stale"`
	OccChecksums  []int64        `json:"occChecksums"`
	DistChecksums []int64        `json:"distChecksums"`
}

// distChecksum folds a distance distribution into one order-independent
// number.
func distChecksum(c *stats.Counter) int64 {
	var sum int64
	for _, k := range c.Outcomes() {
		sum += (int64(k)*257 + 1) * c.Count(k)
	}
	return sum
}

func fingerprint(r Result) goldenFingerprint {
	fp := goldenFingerprint{
		Regular: r.RegularCount,
		Uncles:  r.UncleCount,
		Stale:   r.StaleCount,
	}
	for _, reward := range r.ByPool {
		fp.ByPool = append(fp.ByPool, toGoldenReward(reward))
	}
	for _, occ := range r.OccupancyByPool {
		var sum int64
		for state, n := range occ {
			sum += (int64(state.S)*131 + int64(state.H) + 1) * n
		}
		fp.OccChecksums = append(fp.OccChecksums, sum)
	}
	fp.DistChecksums = []int64{distChecksum(&r.PoolUncleDistances), distChecksum(&r.HonestUncleDistances)}
	return fp
}

// goldenCase is one pinned configuration. Populations and schedules are
// rebuilt from the parameters so the file stays readable.
type goldenCase struct {
	name     string
	gamma    float64
	schedule rewards.Schedule
	pools    []float64 // pool hash powers (MultiAgent); nil = TwoAgent(0.35)
	uncleCap int
	miners   int // >0: Equal(miners, selfish) population instead
	selfish  int
}

// noDepthSchedule is the paper's Fig. 8 schedule: a flat Ku = 1/2 at any
// distance, which the engine runs at its maximum reference window.
func noDepthSchedule() rewards.Schedule {
	s, err := rewards.Constant(0.5, rewards.NoDepthLimit)
	if err != nil {
		panic(err)
	}
	return s
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	schedules := []struct {
		name string
		s    rewards.Schedule
	}{
		{"ethereum", rewards.Ethereum()},
		{"bitcoin", rewards.Bitcoin()},
	}
	for _, sched := range schedules {
		for _, gamma := range []float64{0, 0.5, 1} {
			cases = append(cases,
				goldenCase{
					name:     "1pool-" + sched.name + "-gamma" + strconv.FormatFloat(gamma, 'g', -1, 64),
					gamma:    gamma,
					schedule: sched.s,
				},
				goldenCase{
					name:     "2pool-" + sched.name + "-gamma" + strconv.FormatFloat(gamma, 'g', -1, 64),
					gamma:    gamma,
					schedule: sched.s,
					pools:    []float64{0.25, 0.2},
				},
			)
		}
	}
	cases = append(cases,
		goldenCase{name: "1pool-ethereum-unclecap2", gamma: 0.5, schedule: rewards.Ethereum(), uncleCap: 2},
		goldenCase{name: "2pool-ethereum-unclecap2", gamma: 0.5, schedule: rewards.Ethereum(), uncleCap: 2, pools: []float64{0.25, 0.2}},
		goldenCase{name: "1000miners-ethereum-gamma0.5", gamma: 0.5, schedule: rewards.Ethereum(), miners: 1000, selfish: 350},
		goldenCase{name: "1pool-nodepth-gamma0.5", gamma: 0.5, schedule: noDepthSchedule()},
		goldenCase{name: "2pool-nodepth-gamma0.5", gamma: 0.5, schedule: noDepthSchedule(), pools: []float64{0.25, 0.2}},
		goldenCase{name: "1pool-nodepth-unclecap2", gamma: 0.5, schedule: noDepthSchedule(), uncleCap: 2},
	)
	return cases
}

func (c goldenCase) run(t *testing.T) Result {
	t.Helper()
	var (
		pop *mining.Population
		err error
	)
	switch {
	case c.miners > 0:
		pop, err = mining.Equal(c.miners, c.selfish)
	case c.pools != nil:
		pop, err = mining.MultiAgent(c.pools...)
	default:
		pop, err = mining.TwoAgent(0.35)
	}
	if err != nil {
		t.Fatal(err)
	}
	result, err := Run(Config{
		Population:        pop,
		Gamma:             c.gamma,
		Schedule:          c.schedule,
		Blocks:            20000,
		Seed:              7,
		MaxUnclesPerBlock: c.uncleCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return result
}

// TestGoldenTimeless pins the timeless path bit for bit against the
// pre-continuous-time engine.
func TestGoldenTimeless(t *testing.T) {
	fingerprints := make(map[string]goldenFingerprint)
	for _, c := range goldenCases() {
		fingerprints[c.name] = fingerprint(c.run(t))
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(fingerprints, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(fingerprints), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var want map[string]goldenFingerprint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(fingerprints) {
		t.Errorf("golden file has %d fingerprints, test produced %d", len(want), len(fingerprints))
	}
	for name, got := range fingerprints {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from golden file (regenerate with -update)", name)
			continue
		}
		if len(got.ByPool) != len(w.ByPool) {
			t.Errorf("%s: %d pools, golden has %d", name, len(got.ByPool), len(w.ByPool))
			continue
		}
		for i := range got.ByPool {
			if got.ByPool[i] != w.ByPool[i] {
				t.Errorf("%s: pool %d tally %+v, golden %+v", name, i, got.ByPool[i], w.ByPool[i])
			}
		}
		if got.Regular != w.Regular || got.Uncles != w.Uncles || got.Stale != w.Stale {
			t.Errorf("%s: classes (r=%d u=%d s=%d), golden (r=%d u=%d s=%d)",
				name, got.Regular, got.Uncles, got.Stale, w.Regular, w.Uncles, w.Stale)
		}
		for i := range got.OccChecksums {
			if i < len(w.OccChecksums) && got.OccChecksums[i] != w.OccChecksums[i] {
				t.Errorf("%s: occupancy checksum %d = %d, golden %d",
					name, i, got.OccChecksums[i], w.OccChecksums[i])
			}
		}
		if !slices.Equal(got.DistChecksums, w.DistChecksums) {
			t.Errorf("%s: uncle-distance checksums %v, golden %v", name, got.DistChecksums, w.DistChecksums)
		}
	}
}
