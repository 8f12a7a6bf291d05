package sim

import (
	"errors"
	"math/bits"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/rng"
)

// FuzzValidateReaction pins the protocol gate every strategy decision
// passes through: for any representable race frame, validateReaction must
// accept exactly the legal reactions, and an accepted reaction must never
// commit a non-leading branch, publish blocks that do not exist, or retract
// announced ones.
func FuzzValidateReaction(f *testing.F) {
	f.Add(0, false, false, 3, 1, 0)
	f.Add(2, true, false, 2, 1, 1)
	f.Add(1, false, true, 1, 2, 0)
	f.Add(3, false, false, 3, 2, 2)
	f.Add(1, false, false, 3, 1, 2) // un-publish attempt
	f.Add(4, false, false, 3, 1, 0) // publish beyond the branch
	f.Add(0, true, true, 3, 1, 0)   // commit and adopt
	f.Fuzz(func(t *testing.T, publishTo int, commit, adopt bool, ls, lh, published int) {
		if ls < 0 || lh < 0 || published < 0 || published > ls {
			t.Skip("not a representable race frame")
		}
		r := Reaction{PublishTo: publishTo, Commit: commit, Adopt: adopt}
		err := validateReaction(r, ls, lh, published)
		legal := !(commit && adopt) &&
			!(commit && ls <= lh) &&
			publishTo <= ls &&
			(publishTo == 0 || publishTo >= published)
		if (err == nil) != legal {
			t.Fatalf("validateReaction(%+v, ls=%d, lh=%d, published=%d) err=%v, legality=%v",
				r, ls, lh, published, err, legal)
		}
		// The allocation-free twin used by decision-table compilation must
		// agree with the error-reporting gate exactly.
		if got := reactionAllowed(r, ls, lh, published); got != (err == nil) {
			t.Fatalf("reactionAllowed(%+v, ls=%d, lh=%d, published=%d) = %v, validateReaction err=%v",
				r, ls, lh, published, got, err)
		}
		if err != nil && !errors.Is(err, ErrBadReaction) {
			t.Fatalf("error %v does not wrap ErrBadReaction", err)
		}
		if err == nil && commit && ls <= lh {
			t.Fatal("accepted commit of a non-leading branch")
		}
	})
}

// randomReactor is a strategy that draws a uniformly random *legal*
// reaction at every decision point. It deliberately breaks the
// "deterministic function of the frame" contract (it owns a generator), so
// it lives in tests only: the point is to push the simulator through race
// trajectories no designed strategy visits.
type randomReactor struct {
	r *rng.Source
}

// intn draws a uniform integer in [0, n) from one generator output by
// multiply-shift reduction (bias below n/2^64).
func intn(r *rng.Source, n int) int {
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

func (s *randomReactor) Name() string { return "random-legal" }

func (s *randomReactor) ReactToPool(ls, lh, published int) Reaction {
	return s.react(ls, lh, published)
}

func (s *randomReactor) ReactToHonest(ls, lh, published int) Reaction {
	return s.react(ls, lh, published)
}

func (s *randomReactor) react(ls, lh, published int) Reaction {
	switch intn(s.r, 4) {
	case 0:
		return Reaction{}
	case 1:
		return Reaction{Adopt: true}
	case 2:
		if ls > lh {
			return Reaction{Commit: true}
		}
		return Reaction{}
	default:
		if ls == published {
			return Reaction{}
		}
		// Any prefix from the announced count up to the whole branch.
		return Reaction{PublishTo: published + intn(s.r, ls-published+1)}
	}
}

// FuzzRandomLegalStrategySimulation is the randomized-strategy property
// test: a simulator driven by arbitrary legal reactions (any pool count,
// alpha, gamma, difficulty regime) must never error, must settle exactly at
// the consensus floor (never past it), must conserve blocks — every minted
// block is settled as regular, uncle, or stale — and, when the time axis is
// on, must keep timestamps monotone along every branch and elapsed time
// positive, with the same conservation laws holding under retargeting. Its
// Result must match the one-shot settlement oracle bit for bit, with and
// without eviction. The reference depth is fuzzed too (see fuzzSchedule), so
// the audited, evicting replay covers every reference window the engine
// runs.
func FuzzRandomLegalStrategySimulation(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(30), uint8(128), uint8(1), uint16(2000), uint8(0), uint8(0))
	f.Add(uint64(7), uint64(11), uint8(45), uint8(0), uint8(2), uint16(1500), uint8(1), uint8(0))
	f.Add(uint64(42), uint64(43), uint8(60), uint8(255), uint8(3), uint16(900), uint8(2), uint8(0))
	f.Add(uint64(99), uint64(5), uint8(10), uint8(64), uint8(2), uint16(400), uint8(3), uint8(0))
	f.Add(uint64(3), uint64(8), uint8(35), uint8(128), uint8(0), uint16(3000), uint8(0), uint8(1))
	f.Add(uint64(5), uint64(13), uint8(40), uint8(200), uint8(1), uint16(3500), uint8(0), uint8(2))
	f.Add(uint64(77), uint64(21), uint8(25), uint8(90), uint8(2), uint16(2500), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed, strategySeed uint64, alphaByte, gammaByte, poolsByte uint8, blocksWord uint16, timeByte, depthByte uint8) {
		pools := 1 + int(poolsByte)%3
		totalAlpha := 0.10 + float64(alphaByte%50)/100 // 0.10 .. 0.59
		alphas := make([]float64, pools)
		for i := range alphas {
			alphas[i] = totalAlpha / float64(pools)
		}
		pop, err := mining.MultiAgent(alphas...)
		if err != nil {
			t.Fatal(err)
		}
		strategies := make([]Strategy, pools)
		for i := range strategies {
			strategies[i] = &randomReactor{r: rng.New(strategySeed + uint64(i))}
		}
		cfg := Config{
			Population: pop,
			Gamma:      float64(gammaByte) / 255,
			Blocks:     200 + int(blocksWord)%4000,
			Seed:       seed,
			Strategies: strategies,
			Time:       fuzzTimeConfig(timeByte),
			Schedule:   fuzzSchedule(t, depthByte),
		}.withDefaults()
		if err := cfg.validate(); err != nil {
			t.Fatal(err)
		}

		s, result, err := traceRun(cfg)
		if err != nil {
			t.Fatalf("random legal reactions errored: %v", err)
		}

		// Settlement happens exactly at the consensus floor: the floor is
		// an ancestor of the public tip and of every live pool branch, and
		// the regular chain is precisely the chain down from the floor.
		floor := s.consensusFloor()
		onChainOf := func(tip chain.BlockID) bool {
			return tip == floor || s.tree.IsAncestor(floor, tip)
		}
		if !onChainOf(s.pubTip) {
			t.Error("consensus floor is not on the public tip's chain")
		}
		for i := range s.pools {
			if !onChainOf(s.pools[i].tip()) {
				t.Errorf("consensus floor is not on pool %d's branch", i+1)
			}
		}
		if got, want := result.RegularCount, s.tree.HeightOf(floor); got != want {
			t.Errorf("settled %d regular blocks, want the floor height %d", got, want)
		}

		// Block conservation: regular + uncle + stale = minted. One block
		// is minted per event, plus genesis (which is never settled).
		minted := s.tree.Len() - 1
		if minted != cfg.Blocks {
			t.Errorf("minted %d blocks over %d events", minted, cfg.Blocks)
		}
		if got := result.RegularCount + result.UncleCount + result.StaleCount; got != minted {
			t.Errorf("settled classes sum to %d, want %d (r=%d u=%d s=%d)",
				got, minted, result.RegularCount, result.UncleCount, result.StaleCount)
		}

		// Occupancy conservation: every pool observes its frame once per
		// event.
		for i, occ := range result.OccupancyByPool {
			var total int64
			for _, n := range occ {
				total += n
			}
			if total != int64(cfg.Blocks) {
				t.Errorf("pool %d occupancy sums to %d over %d events", i+1, total, cfg.Blocks)
			}
		}

		// Reward conservation: regular blocks each pay exactly one static
		// reward, whatever the difficulty regime — retargeting may change
		// *when* blocks arrive, never what they pay.
		var static float64
		for _, reward := range result.ByPool {
			static += reward.Static
		}
		if int(static) != result.RegularCount {
			t.Errorf("settled static rewards %v, want one per regular block (%d)",
				static, result.RegularCount)
		}

		// Time invariants, when the axis is on: strictly positive elapsed
		// time bounding the settled span, positive difficulty, and
		// timestamps monotone along every branch.
		if cfg.Time.Enabled {
			if result.Elapsed <= 0 {
				t.Errorf("elapsed time %v, want positive", result.Elapsed)
			}
			if result.SettledTime < 0 || result.SettledTime > result.Elapsed {
				t.Errorf("settled time %v outside [0, %v]", result.SettledTime, result.Elapsed)
			}
			if result.FinalDifficulty <= 0 {
				t.Errorf("final difficulty %v, want positive", result.FinalDifficulty)
			}
			for id := 1; id < s.tree.Len(); id++ {
				b := chain.BlockID(id)
				if s.tree.TimeOf(b) < s.tree.TimeOf(s.tree.ParentOf(b)) {
					t.Fatalf("block %d predates its parent", id)
				}
			}
		} else if result.Elapsed != 0 || result.SettledTime != 0 {
			t.Errorf("timeless run reported elapsed %v, settled %v",
				result.Elapsed, result.SettledTime)
		}

		// Settlement oracle: the one-shot walk over the full tree must
		// reproduce the Result bit for bit, and so must the same trajectory
		// settled with eviction on (with the runtime auditor verifying
		// conservation at every sampled event along the way). Fresh
		// reactors at the same seeds replay the same decisions.
		if want := oracleResult(t, s); !reflect.DeepEqual(want, result) {
			diffResults(t, want, result)
		}
		evictCfg := cfg
		evictCfg.Audit = AuditConfig{Enabled: true, SampleEvery: 64}
		evictStrategies := make([]Strategy, pools)
		for i := range evictStrategies {
			evictStrategies[i] = &randomReactor{r: rng.New(strategySeed + uint64(i))}
		}
		evictCfg.Strategies = evictStrategies
		evicted, err := Run(evictCfg)
		if err != nil {
			t.Fatalf("evicting replay errored: %v", err)
		}
		if !reflect.DeepEqual(result, evicted) {
			diffResults(t, result, evicted)
		}
	})
}

// fuzzSchedule maps one fuzz byte onto the reference depths the engine
// distinguishes: Ethereum's (window 6), the shallowest window (1), and no
// depth limit (the engine's widest window, 64).
func fuzzSchedule(t *testing.T, b uint8) rewards.Schedule {
	switch b % 3 {
	case 1:
		s, err := rewards.Constant(0.5, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	case 2:
		s, err := rewards.Constant(0.5, rewards.NoDepthLimit)
		if err != nil {
			t.Fatal(err)
		}
		return s
	default:
		return rewards.Ethereum()
	}
}

// fuzzTimeConfig maps one fuzz byte onto the time-axis configuration space:
// off, or on under each difficulty rule.
func fuzzTimeConfig(b uint8) TimeConfig {
	if b%4 == 0 {
		return TimeConfig{}
	}
	return TimeConfig{Enabled: true, Difficulty: difficulty.Params{Rule: difficulty.Rules()[b%4-1]}}
}
