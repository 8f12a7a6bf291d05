package sim

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
)

// The engine settles every run by streaming (see stream.go). These tests pin
// it bit for bit against an independent one-shot oracle — chain.Tree.Settle
// over the full tree RunTrace keeps, plus a descending walk for the time
// windows — across every engine mode the settlement touches: timeless and
// timed, every difficulty rule, a low alpha, uncle caps, multi-pool and
// 1000-miner populations, and the Bitcoin window=1 boundary.

// streamEquivCase is one pinned configuration.
type streamEquivCase struct {
	name string
	cfg  Config
}

func streamEquivCases(t *testing.T) []streamEquivCase {
	t.Helper()
	multi, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	equal, err := mining.Equal(1000, 350)
	if err != nil {
		t.Fatal(err)
	}
	timed := func(rule difficulty.Rule, blocks int) Config {
		return timedConfig(t, 0.35, blocks, rule)
	}
	return []streamEquivCase{
		{
			name: "timeless-1pool",
			cfg:  Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 20000, Seed: 7},
		},
		{
			name: "timeless-2pool",
			cfg:  Config{Population: multi, Gamma: 0.5, Blocks: 20000, Seed: 7},
		},
		{
			name: "timeless-unclecap",
			cfg:  Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 20000, Seed: 7, MaxUnclesPerBlock: 2},
		},
		{
			name: "timeless-1000miners",
			cfg:  Config{Population: equal, Gamma: 0.5, Blocks: 20000, Seed: 7},
		},
		{
			name: "timeless-bitcoin-window1",
			cfg:  Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 20000, Seed: 7, Schedule: rewards.Bitcoin()},
		},
		{name: "timed-eip100", cfg: timed(difficulty.EIP100, 2000)},
		{name: "timed-bitcoinstyle", cfg: timed(difficulty.BitcoinStyle, 2000)},
		{name: "timed-eip100-long", cfg: timed(difficulty.EIP100, 30000)},
		{
			name: "timeless-alpha0.15",
			cfg:  Config{Population: twoAgent(t, 0.15), Gamma: 0.5, Blocks: 20000, Seed: 909},
		},
		{
			name: "timed-static-alpha0.15",
			cfg: Config{
				Population: twoAgent(t, 0.15),
				Gamma:      0.5,
				Blocks:     2000,
				Seed:       909,
				Time: TimeConfig{
					Enabled:    true,
					Difficulty: difficulty.Params{Rule: difficulty.Static},
				},
			},
		},
	}
}

// diffResults reports every Result field where got diverges from want,
// field by field so a failure names the broken invariant directly.
func diffResults(t *testing.T, want, got Result) {
	t.Helper()
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	typ := reflect.TypeOf(want)
	for i := 0; i < typ.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("field %s diverges:\nwant: %+v\n got: %+v",
				typ.Field(i).Name, wv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}
}

// oracleResult settles a finished full-tree run the one-shot way: one
// chain.Tree.Settle walk from the final consensus floor down to genesis,
// then a second descending walk for the time windows, with the Steady
// boundary at the height the engine recorded. Nothing here touches the
// streaming settler.
func oracleResult(t *testing.T, s *simulator) Result {
	t.Helper()
	if s.tree.Base() != 0 {
		t.Fatal("the oracle needs the full tree: the run evicted records")
	}
	cfg := s.cfg
	settlement, err := s.tree.Settle(s.consensusFloor(), cfg.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	pop := cfg.Population
	result := Result{
		Alpha:           pop.Alpha(),
		Blocks:          cfg.Blocks,
		ByPool:          make([]chain.Reward, pop.NumPools()+1),
		MinerRewards:    settlement.MinerRewards,
		MinerSeen:       settlement.MinerSeen,
		RegularCount:    settlement.RegularCount,
		UncleCount:      settlement.UncleCount,
		StaleCount:      settlement.StaleCount,
		EventsByPool:    append([]int64(nil), s.events...),
		OccupancyByPool: make([]Occupancy, len(s.occ)),
	}
	for i := range s.occ {
		result.OccupancyByPool[i] = s.occupancyMap(i)
	}
	result.Occupancy = result.OccupancyByPool[0]
	for id, reward := range settlement.MinerRewards {
		pool := pop.PoolOf(chain.MinerID(id))
		result.ByPool[pool] = result.ByPool[pool].Add(reward)
		if pool != mining.HonestPool {
			result.Pool = result.Pool.Add(reward)
		} else {
			result.Honest = result.Honest.Add(reward)
		}
	}
	for _, ref := range settlement.Refs {
		if !cfg.Schedule.Referenceable(ref.Distance) {
			continue
		}
		if pop.IsSelfish(s.tree.MinerOf(ref.Uncle)) {
			result.PoolUncleDistances.Observe(ref.Distance)
		} else {
			result.HonestUncleDistances.Observe(ref.Distance)
		}
	}
	if s.timing {
		result.Elapsed = s.clock
		result.SettledTime = s.tree.TimeOf(settlement.Tip)
		result.InitialDifficulty = difficulty.InitialDifficulty
		result.FinalDifficulty = s.currentDifficulty()
		if s.ctrl != nil {
			result.Retargets = s.ctrl.Retargets()
		}
		oracleWindows(s, &result, settlement.Tip)
	}
	return result
}

// oracleWindows splits the settled chain into the Result's two windows:
// Early is the first min(epoch, settled) regular blocks, Steady everything
// above the recorded midpoint-floor height.
func oracleWindows(s *simulator, result *Result, floor chain.BlockID) {
	tree := s.tree
	earlyEnd := min(difficulty.DefaultEpoch, result.RegularCount)
	steadyStart := s.str.steadyHeight
	nPools := len(result.ByPool)
	early := Window{ByPool: make([]chain.Reward, nPools)}
	steady := Window{ByPool: make([]chain.Reward, nPools), End: tree.TimeOf(floor)}
	tally := func(w *Window, id chain.BlockID) {
		_, height, uncles := tree.BlockInfo(id)
		minerPool := s.poolOf(id)
		w.Regular++
		w.ByPool[minerPool].Static++
		for _, u := range uncles {
			d := height - tree.HeightOf(u)
			if !s.cfg.Schedule.Referenceable(d) {
				continue
			}
			w.Uncles++
			w.ByPool[minerPool].Nephew += s.cfg.Schedule.Nephew(d)
			w.ByPool[s.poolOf(u)].Uncle += s.cfg.Schedule.Uncle(d)
		}
	}
	for id := floor; id != tree.Genesis(); id = tree.ParentOf(id) {
		height := tree.HeightOf(id)
		if height == earlyEnd {
			early.End = tree.TimeOf(id)
		}
		if height == steadyStart {
			steady.Start = tree.TimeOf(id)
		}
		if height <= earlyEnd {
			tally(&early, id)
		}
		if height > steadyStart {
			tally(&steady, id)
		}
	}
	result.Early = early
	result.Steady = steady
}

// TestStreamingEquivalence pins the engine bit for bit against the one-shot
// oracle at the same seed: the full-tree RunTrace run, a Runner run that
// evicts as it settles, and the same run under the runtime auditor
// (exercising the conservation and clamped timestamp audits along the way).
func TestStreamingEquivalence(t *testing.T) {
	for _, c := range streamEquivCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s, traced, err := traceRun(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleResult(t, s)
			if !reflect.DeepEqual(want, traced) {
				t.Error("full-tree run diverges from the oracle:")
				diffResults(t, want, traced)
			}

			var rn Runner
			got, err := rn.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rn.s.tree.Base() == 0 {
				t.Error("the run never evicted a record, so eviction went unexercised")
			}
			if !reflect.DeepEqual(want, got) {
				t.Error("evicting run diverges from the oracle:")
				diffResults(t, want, got)
			}

			auditCfg := c.cfg
			auditCfg.Audit = AuditConfig{Enabled: true, SampleEvery: 512}
			audited, err := Run(auditCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, audited) {
				t.Error("audited run diverges from the oracle:")
				diffResults(t, want, audited)
			}
		})
	}
}

// TestRunTraceKeepsFullTree pins RunTrace's contract: on a run long enough
// that the engine would evict, the returned tree is uncompacted, holds every
// minted block, and settling it at the consensus floor reproduces the
// Result's tallies.
func TestRunTraceKeepsFullTree(t *testing.T) {
	cfg := Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 20000, Seed: 5}
	result, tree, err := RunTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Base() != 0 {
		t.Fatalf("RunTrace tree is compacted to base %d", tree.Base())
	}
	if got := tree.Len() - 1; got != cfg.Blocks {
		t.Fatalf("tree holds %d blocks, want %d", got, cfg.Blocks)
	}
	s, _, err := traceRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	settlement, err := tree.Settle(s.consensusFloor(), rewards.Ethereum())
	if err != nil {
		t.Fatal(err)
	}
	if settlement.RegularCount != result.RegularCount || settlement.UncleCount != result.UncleCount ||
		settlement.StaleCount != result.StaleCount {
		t.Errorf("settled r/u/s = %d/%d/%d, Result has %d/%d/%d",
			settlement.RegularCount, settlement.UncleCount, settlement.StaleCount,
			result.RegularCount, result.UncleCount, result.StaleCount)
	}
	if !reflect.DeepEqual(settlement.MinerRewards, result.MinerRewards) ||
		!reflect.DeepEqual(settlement.MinerSeen, result.MinerSeen) {
		t.Error("settling the traced tree does not reproduce the Result's per-miner tallies")
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, result) {
		t.Error("RunTrace's Result diverges from Run's:")
		diffResults(t, plain, result)
	}
}

// allocDelta measures the heap bytes allocated while f runs. TotalAlloc is
// monotone and GC-independent, so the measurement is stable.
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamingMemoryIsWindowBounded pins the engine's memory property: on
// a warmed Runner a run's allocations are bounded by the race window and
// the Result size, not the run length — quadrupling the block count must
// not even double the allocated bytes.
func TestStreamingMemoryIsWindowBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon memory measurement")
	}
	cfg := func(blocks int) Config {
		return Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: blocks, Seed: 3}
	}
	var runner Runner
	if _, err := runner.Run(cfg(50000)); err != nil { // warm all reusable storage
		t.Fatal(err)
	}
	measure := func(blocks int) uint64 {
		return allocDelta(func() {
			if _, err := runner.Run(cfg(blocks)); err != nil {
				t.Fatal(err)
			}
		})
	}
	d100 := measure(100000)
	d400 := measure(400000)
	// Generous slack for occupancy maps and Result copies; the point is
	// the asymptote, not the constant.
	if d400 > 2*d100+1<<20 {
		t.Errorf("4x blocks allocated %d bytes vs %d at 1x: memory grows with the run, not the window", d400, d100)
	}
}
