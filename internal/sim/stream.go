package sim

import (
	"fmt"
	"math"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/stats"
)

// This file is the engine's settlement: instead of retaining the whole run
// and settling it in one end-of-run walk, the engine settles the decided
// prefix incrementally as the consensus floor advances and evicts settled
// records from the tree, keeping resident memory O(active race window)
// instead of O(run length).
//
// The contract, layer by layer:
//
//   - Settle boundary. When the floor reaches height fH, the chain prefix up
//     to sH = fH - (window+1) is settled (it was final the moment the floor
//     decided it; settling lags the floor by a window only to keep eviction
//     simple — see below). window = min(schedule.MaxDepth(), 64), the same
//     reference window the candidate bookkeeping uses.
//   - Eviction boundary. Records below sH - window - 1 are evicted
//     (chain.Tree.CompactBelow). No future block can reference anything
//     that deep (a future block's height exceeds fH, putting the evicted
//     prefix beyond the uncle depth limit), and no hot-path read reaches
//     it: the uncle-eligibility walk covers only the race segment above
//     the floor, the chain-index walk (advanceFloor) only the floor's
//     advance and the uncles it references (at most a window below the
//     old floor), and the difficulty observation cursor stays above the
//     bound. The floor purge reads a candidate's own index bits and its
//     parent's decided bit, which the pre-eviction sweep
//     (sweepDeadRecent) keeps resident: it drops every candidate below
//     sH - window, so the lowest candidate's parent sits at or above
//     sH - window - 1 for every window >= 1.
//   - Bit-identity. The incremental tallies equal the one-shot
//     chain.Tree.Settle walk over the full tree bit for bit (see
//     chain.StreamSettler); Result assembly then sums them in miner-ID
//     order. The oracle suite pins every Result field, Steady included,
//     against that walk.
//   - Steady boundary. The Steady window starts at the consensus-floor
//     height the loop records when it first reaches event Blocks/2
//     (markSteadyStart). The settler still lags that height then, so every
//     block above it is tallied into the window as it settles.
//
// Flushes are batched (streamFlushBatch settled heights at a time) so the
// amortized cost per block is a handful of moves, mirroring the candidate
// window's trim batching.

// streamFlushBatch is the settled-height backlog at which the engine
// settles and evicts. Larger batches amortize the compaction copy-down
// further at the cost of a proportionally larger resident suffix; 256 keeps
// both far below cache sizes.
const streamFlushBatch = 256

// streamState holds the streaming settlement's per-run state.
type streamState struct {
	settler *chain.StreamSettler

	// hooks is the settler callback pair, built once per run so flushes
	// allocate nothing.
	hooks chain.SettleHooks

	// poolDist and honestDist tally realized reference distances by the
	// uncle's camp, indexed by distance (the reference window caps it at
	// maxReferenceWindow); assembleResult turns them into the Result's
	// uncle-distance counters.
	poolDist, honestDist [maxReferenceWindow + 1]int64

	// Time-window accumulation (timed runs only). steadyHeight is the
	// Steady window's boundary height, math.MaxInt until the loop records
	// it.
	// The windows' tallies are shared by every clock overlay; their time
	// bounds are stamped per overlay (clockOverlay.bounds).
	steadyHeight int
	early        Window // heights <= difficulty.DefaultEpoch
	steady       Window // heights > steadyHeight
}

// initStream prepares the streaming settlement for one run.
func (s *simulator) initStream(cfg Config) {
	s.idBase = 0
	if s.str == nil {
		s.str = &streamState{}
	}
	st := s.str
	if st.settler == nil {
		st.settler = chain.NewStreamSettler(cfg.Schedule)
	} else {
		st.settler.Reset(cfg.Schedule)
	}
	s.armFlush()
	st.hooks = chain.SettleHooks{OnRef: s.streamRef}
	st.poolDist = [maxReferenceWindow + 1]int64{}
	st.honestDist = [maxReferenceWindow + 1]int64{}
	st.steadyHeight = math.MaxInt
	s.steadyEvent = math.MaxInt
	if cfg.Time.Enabled {
		// Only the windows need per-block callbacks.
		st.hooks.OnBlock = s.streamBlock
		s.steadyEvent = cfg.Blocks / 2
		nPools := cfg.Population.NumPools() + 1
		st.early = Window{ByPool: make([]chain.Reward, nPools)}
		st.steady = Window{ByPool: make([]chain.Reward, nPools)}
	}
}

// markSteadyStart records the Steady window's boundary: the height of the
// consensus floor when the loop reaches event Blocks/2. Every
// later floor descends from this one, so the boundary block is on the final
// settled chain; and the settler lags the floor by more than a window, so
// no block above the boundary has settled yet.
func (s *simulator) markSteadyStart() {
	s.steadyEvent = math.MaxInt
	s.str.steadyHeight = s.tree.HeightOf(s.streamFloor())
}

// streamBlock is the settler's per-block hook on timed runs: window
// accumulation. Reward-tally work lives in the settler itself.
func (s *simulator) streamBlock(id chain.BlockID, height int) {
	st := s.str
	minerPool := s.poolOf(id)
	if height <= difficulty.DefaultEpoch {
		st.early.Regular++
		st.early.ByPool[minerPool].Static++
		if height == difficulty.DefaultEpoch {
			s.stampBound(id, earlyEnd)
		}
	}
	switch {
	case height > st.steadyHeight:
		st.steady.Regular++
		st.steady.ByPool[minerPool].Static++
	case height == st.steadyHeight:
		s.stampBound(id, steadyStart)
	}
}

// streamRef is the settler's per-reference hook: distance counters (the
// Result's uncle-distance distributions) and window uncle/nephew tallies.
func (s *simulator) streamRef(ref chain.UncleRef) {
	if !s.cfg.Schedule.Referenceable(ref.Distance) {
		return
	}
	st := s.str
	if s.cfg.Population.IsSelfish(s.tree.MinerOf(ref.Uncle)) {
		st.poolDist[ref.Distance]++
	} else {
		st.honestDist[ref.Distance]++
	}
	if !s.timing {
		return
	}
	height := s.tree.HeightOf(ref.Nephew)
	if height <= difficulty.DefaultEpoch {
		s.tallyRef(&st.early, ref)
	}
	if height > st.steadyHeight {
		s.tallyRef(&st.steady, ref)
	}
}

// tallyRef attributes one realized reference's uncle and nephew rewards to
// a window.
func (s *simulator) tallyRef(w *Window, ref chain.UncleRef) {
	w.Uncles++
	w.ByPool[s.poolOf(ref.Nephew)].Nephew += s.cfg.Schedule.Nephew(ref.Distance)
	w.ByPool[s.poolOf(ref.Uncle)].Uncle += s.cfg.Schedule.Uncle(ref.Distance)
}

// streamFloor returns the floor settlement runs against: the maintained
// consensus floor, or the public tip for a poolless population (whose floor
// never advances — resolve is pool-triggered), mirroring observeSettled.
func (s *simulator) streamFloor() chain.BlockID {
	if len(s.pools) == 0 {
		return s.pubTip
	}
	return s.floor
}

// flushDue is the per-event settlement gate, checked after the floor flush
// (and after the difficulty observation, whose cursor must stay ahead of
// eviction): a batch of newly decided heights awaits settleDecided. It
// inlines to one comparison.
func (s *simulator) flushDue() bool {
	return s.tree.HeightOf(s.streamFloor()) >= s.flushAt
}

// settleDecided advances the settler to window+1 heights below the floor,
// evicts what that releases, and re-arms the flushDue gate one batch
// further up (see flushDue).
func (s *simulator) settleDecided() error {
	st := s.str
	floor := s.streamFloor()
	target := s.tree.AncestorAt(floor, s.tree.HeightOf(floor)-(s.window+1))
	if err := st.settler.Advance(s.tree, target, st.hooks); err != nil {
		return fmt.Errorf("sim: streaming settle: %w", err)
	}
	if !s.keepTree {
		s.evictSettled()
	}
	s.armFlush()
	return nil
}

// armFlush sets the floor height at which flushDue next fires: a full
// batch of heights beyond the settled prefix plus the window+1 lag.
func (s *simulator) armFlush() {
	s.flushAt = s.str.settler.SettledHeight() + s.window + 1 + streamFlushBatch
}

// evictSettled drops tree records the settle boundary has released and
// rebases the per-block flags (visibility, window membership and the
// floor-anchored chain index) and the extra clock overlays' stamp columns
// to the tree's new ID base: one array shift each.
//
// Before compacting it force-sweeps the candidate window below the keep
// bound: the amortized trim scans in ID order and stops at the first tall
// entry, so a deep fork block can linger in the window (and in the
// fork-child set) long after its height makes it unreferenceable. Those
// stragglers are semantically dead — every future nephew sits more than an
// uncle window above them — but the floor purge reads each candidate's
// and its parent's index bits, and the audits rescan the window, so
// nothing the window still tracks may be evicted. The sweep removes them
// first, and the compaction keeps one extra height below the keep bound so
// that the lowest candidate's parent is always resident.
func (s *simulator) evictSettled() {
	minKeep := s.str.settler.SettledHeight() - s.window
	s.sweepDeadRecent(minKeep)
	if s.tree.CompactBelow(minKeep-1) == 0 {
		return
	}
	base := int(s.tree.Base())
	n := copy(s.flags, s.flags[base-s.idBase:])
	s.flags = s.flags[:n]
	for k := range s.overlays {
		o := &s.overlays[k]
		o.stamps = o.stamps[:copy(o.stamps, o.stamps[base-s.idBase:])]
	}
	s.idBase = base
}

// sweepDeadRecent removes every candidate-window entry below minHeight,
// regardless of position — the exhaustive counterpart of trimRecent's
// early-exit scan. Entries this deep cannot change any future event (the
// reference depth limit rejects them), so removing them preserves
// bit-identity; the brute-force window audits recompute their expected
// sets from the swept window and stay consistent.
func (s *simulator) sweepDeadRecent(minHeight int) {
	live := s.recent[s.recentHead:]
	kept := live[:0]
	for _, wb := range live {
		if wb.height < minHeight {
			s.flags[int(wb.id)-s.idBase] &^= flagInRecent
			if len(s.forkChildren) > 0 {
				s.removeForkChild(wb.id)
			}
			continue
		}
		kept = append(kept, wb)
	}
	s.recent = s.recent[:s.recentHead+len(kept)]
}

// settleStream settles a run into out, one Result per clock overlay:
// advance the settler over the still-unsettled suffix up to the final
// consensus floor, then read each Result off the shared tallies and its
// overlay's clock.
func settleStream(s *simulator, out []Result) error {
	floor := s.consensusFloor()
	if err := s.str.settler.Advance(s.tree, floor, s.str.hooks); err != nil {
		return fmt.Errorf("sim: streaming settle: %w", err)
	}
	for k := range out {
		out[k] = s.assembleResult(k, floor)
	}
	return nil
}

// assembleResult reads overlay k's Result off the settled tallies. Every
// call builds its own slices and maps, so no two Results of a group alias.
func (s *simulator) assembleResult(k int, floor chain.BlockID) Result {
	cfg := s.cfg
	st := s.str
	pop := cfg.Population
	regular := st.settler.RegularCount()
	uncles := st.settler.UncleCount()
	result := Result{
		Alpha:  pop.Alpha(),
		Blocks: cfg.Blocks,
		ByPool: make([]chain.Reward, pop.NumPools()+1),
		// The settler's buffers are reused across a Runner's runs; the
		// Result owns copies.
		MinerRewards:    append([]chain.Reward(nil), st.settler.MinerRewards()...),
		MinerSeen:       append([]bool(nil), st.settler.MinerSeen()...),
		RegularCount:    regular,
		UncleCount:      uncles,
		StaleCount:      s.tree.Len() - 1 - regular - uncles,
		EventsByPool:    append([]int64(nil), s.events...),
		OccupancyByPool: make([]Occupancy, len(s.occ)),
	}
	for i := range s.occ {
		result.OccupancyByPool[i] = s.occupancyMap(i)
	}
	result.Occupancy = result.OccupancyByPool[0]
	// Summing the dense tallies in ID order keeps the float accumulation
	// order deterministic (the map view has no stable order).
	for id, reward := range result.MinerRewards {
		pool := pop.PoolOf(chain.MinerID(id))
		result.ByPool[pool] = result.ByPool[pool].Add(reward)
		if pool != mining.HonestPool {
			result.Pool = result.Pool.Add(reward)
		} else {
			result.Honest = result.Honest.Add(reward)
		}
	}
	result.PoolUncleDistances = distanceCounter(&st.poolDist)
	result.HonestUncleDistances = distanceCounter(&st.honestDist)
	if s.timing {
		o := s.overlay(k)
		result.Elapsed = o.clock
		result.SettledTime = s.stampOf(k, floor)
		result.InitialDifficulty = difficulty.InitialDifficulty
		result.FinalDifficulty = o.currentDifficulty()
		if o.ctrl != nil {
			result.Retargets = o.ctrl.Retargets()
		}
		st.assembleWindows(&result, o)
	}
	return result
}

// distanceCounter builds the counter of a dense distance tally, observing
// its nonzero distances in ascending order: the zero counter when no
// reference was realized.
func distanceCounter(tally *[maxReferenceWindow + 1]int64) stats.Counter {
	var c stats.Counter
	for d, n := range tally {
		c.ObserveN(d, n)
	}
	return c
}

// assembleWindows finalizes the Early and Steady windows under overlay o.
func (st *streamState) assembleWindows(result *Result, o *clockOverlay) {
	early := st.early
	early.End = o.bounds[earlyEnd]
	if result.RegularCount < difficulty.DefaultEpoch {
		// The settled chain never reached the epoch boundary: the early
		// window is the whole settled chain, ending at the floor's stamp.
		early.End = result.SettledTime
	}
	early.ByPool = append([]chain.Reward(nil), early.ByPool...)
	result.Early = early

	steady := st.steady
	steady.Start = o.bounds[steadyStart]
	steady.End = result.SettledTime
	steady.ByPool = append([]chain.Reward(nil), steady.ByPool...)
	result.Steady = steady
}
