package sim

import (
	"fmt"
	"math"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/mining"
)

// This file is the analytic fast-forward of uneventful stretches. At the
// race origin — every pool's private branch empty, the public tip childless
// — the simulator is a memoryless coin-flip loop: each event is honest with
// probability 1-alpha, and an honest event at the origin deterministically
// extends the public tip (no gamma draw, every pool re-adopts right back to
// the origin; any uncle references the opening blocks owe are themselves
// deterministic). The number of honest blocks before the next selfish find
// is therefore Geometric(alpha), so the engine can sample the whole stretch
// in one draw, play the reference-owing prefix through the bookkept
// single-block path, bulk-append the rest, bulk-credit occupancy and (on
// the timed axis) bulk-sample the stretch's total duration as a Gamma(k)
// variate, then resume event-by-event at the first interesting find. At
// paper alphas the origin holds pi(0,0) ~ 53-90% of events, of which the
// honest (1-alpha) fraction skips.
//
// Skipping consumes the random stream differently from the plain loop, so
// fast-forward results agree with plain results in distribution, not
// bit-for-bit; fastforward_test.go pins that agreement (occupancy
// chi-squared, revenue within combined CI, conservation under the auditor)
// while determinism and parallel ≡ sequential are preserved within the mode.

// initFastForward decides whether fast-forward may engage for this run and
// precomputes the sole-honest-member fast path. cfg.FastForward is demoted
// (not rejected) when a precondition fails, because the plain loop is always
// correct: a strategy that does not adopt at (0, 1, 0) simply keeps the
// event-by-event path, and any error it would raise there still surfaces.
func (s *simulator) initFastForward(cfg Config) {
	s.ffwd = false
	s.ffwdMiner = chain.MinerID(-1)
	s.ffwdLogQ = 0
	if !cfg.FastForward {
		return
	}
	if m, ok := cfg.Population.SoleMember(mining.HonestPool); ok {
		s.ffwdMiner = m.ID
	}
	// With no honest power the stretch length is always zero; the plain
	// loop is strictly cheaper.
	if cfg.Population.PoolPower(mining.HonestPool) <= 0 {
		return
	}
	// Every pool must plainly adopt at the (0, 1, 0) frame — the only
	// frame consulted during a stretch (each honest block advances the
	// public chain by exactly one over the pool's root, and the adopt
	// moves the root right back). A publish, a commit, a hold, or an
	// invalid reaction would make stretches non-memoryless, so the probe
	// failing keeps the plain loop, where that behavior (or its error)
	// plays out event by event. For tabled strategies the probe is a
	// compile-time table property (the (0, 1, 0) entry is a plain adopt
	// exactly when it validated as one); only untabled pools are probed
	// live.
	for i := range s.pools {
		if !s.pools[i].adoptsAtOrigin() {
			return
		}
	}
	if alpha := cfg.Population.Alpha(); alpha > 0 {
		s.ffwdLogQ = -math.Log1p(-alpha)
	}
	s.ffwd = true
}

// adoptsAtOrigin reports the fast-forward engagement condition for one
// pool: a plain, valid adopt at the (0, 1, 0) frame. Tabled pools answer
// from the compiled table property; untabled ones are probed live. At that
// frame ls = 0 forces any valid PublishTo to zero, so the table's adopt
// entry is necessarily the plain adopt the live probe insists on.
func (p *poolState) adoptsAtOrigin() bool {
	if p.table != nil {
		return p.table.AdoptsAtOrigin()
	}
	r := p.strat.ReactToHonest(0, 1, 0)
	return r.Adopt && !r.Commit && r.PublishTo == 0 &&
		validateReaction(r, 0, 1, 0) == nil
}

// atRaceOrigin reports whether the next event may be fast-forwarded: every
// pool is parked at the origin frame (empty private branch rooted at the
// public tip) and the public tip is childless (so stretch blocks cannot
// create fork children). Uncle candidates left over from a finished race do
// not block the skip: the ones an honest block at the tip would reference
// are folded into the stretch's opening blocks by fastForward's draining
// prefix, and the rest stay untouchable for the whole stretch — the height
// window only moves up past candidates, and visibility and chain attachment
// never change while no pool acts.
func (s *simulator) atRaceOrigin() bool {
	for i := range s.pools {
		p := &s.pools[i]
		if len(p.blocks) != 0 || p.root != s.pubTip {
			return false
		}
	}
	return s.tree.FirstChildOf(s.pubTip) == chain.NoBlock
}

// fastForward samples one uneventful stretch (capped at remaining events),
// applies it in bulk, and returns the number of events skipped. After a
// return of skipped < remaining, the next event's producer is selfish by
// construction; the caller runs it with a conditional draw. The occupancy
// grid, event counts, candidate window, published set, timestamps, clock,
// consensus floor, and audit hooks all see exactly the state the plain loop
// would have produced — only the random draws consumed differ.
func (s *simulator) fastForward(remaining int) (int, error) {
	var k int
	if s.ffwdLogQ == 0 {
		// No pool can ever interrupt the stretch (alpha is zero): the rest
		// of the run is one skip, with no geometric draw to consume.
		k = remaining
	} else {
		k = s.random.GeometricLog(s.ffwdLogQ)
		if k > remaining {
			k = remaining
		}
	}
	if k == 0 {
		return 0, nil
	}

	// Each skipped event observed every pool at the origin frame.
	for i := range s.occ {
		s.occ[i][0] += int64(k)
	}
	s.events[mining.HonestPool] += int64(k)

	// Timed axis: the k unit-exponential inter-arrivals at static
	// difficulty d sum to d * Gamma(k) — one bulk draw. Individual stamps
	// inside the stretch are interpolated at the conditional mean spacing;
	// they stay strictly monotone and at most the final clock, which is
	// what every consumer of intra-stretch stamps (settlement windows, the
	// timestamp audit) requires.
	start := s.clock
	var step float64
	if s.timing {
		total := s.timeRandom.GammaInt(k) * s.currentDifficulty()
		step = total / float64(k)
	}

	// Reference-draining prefix: the stretch may open while uncle candidates
	// from the last race are still referenceable at the tip. The plain loop
	// would fold their references into the next honest blocks' headers, so
	// the stretch does the same through the fully bookkept single-block path
	// before bulk-appending the reference-free remainder. Eligibility only
	// shrinks as the prefix references candidates and the height window
	// climbs, so the prefix spans at most a few blocks.
	parent := s.pubTip
	at := start
	drained := 0
	if len(s.forkChildren) > 0 {
		// The counter gate is O(1) and usually closes after one drained
		// block (its references cover the open candidates), sparing the
		// chain walk a second look.
		for drained < k && s.referencedInWindow < len(s.forkChildren) {
			uncles := s.eligibleUncles(parent, mining.HonestPool)
			if len(uncles) == 0 {
				break
			}
			at += step
			s.clock = at
			m := s.ffwdMiner
			if m < 0 {
				m = s.cfg.Population.SampleMember(mining.HonestPool, s.random).ID
			}
			id, err := s.extend(parent, m, uncles, true)
			if err != nil {
				return 0, err
			}
			parent = id
			drained++
		}
	}
	drainedTip := parent

	tip := parent
	bulk := k - drained
	if bulk > 0 {
		var err error
		if s.ffwdMiner >= 0 {
			tip, err = s.tree.ExtendRun(parent, s.ffwdMiner, bulk, at, step)
		} else {
			// Honest power is spread over several miners: attribution needs
			// a per-block conditional draw, but the blocks still need no
			// uncle or fork bookkeeping.
			for j := 0; j < bulk; j++ {
				at += step
				m := s.cfg.Population.SampleMember(mining.HonestPool, s.random)
				tip, err = s.tree.ExtendAt(parent, m.ID, nil, at)
				if err != nil {
					break
				}
				parent = tip
			}
		}
		if err != nil {
			return 0, fmt.Errorf("sim: fast-forwarding %d blocks: %w", k, err)
		}
	}
	if s.timing {
		s.clock = s.tree.TimeOf(tip)
	}

	// Candidate-window upkeep for the bulk remainder (the prefix blocks went
	// through extend's own upkeep): first trim entries the final height
	// pushes out — dropping any that were fork children, just as the
	// per-event trim would — then enter the stretch's tail. The floor rides
	// over the bulk blocks (below) and they reference nothing, so with
	// pools present they enter the chain index decided directly.
	finalHeight := s.pubHeight + k
	minHeight := finalHeight - s.window - 1
	s.trimRecent(minHeight)
	bulkFlags := flagPublished
	if len(s.pools) > 0 {
		bulkFlags |= flagDecided
	}
	firstID := tip - chain.BlockID(bulk) + 1
	for j := 0; j < bulk; j++ {
		h := s.pubHeight + drained + 1 + j
		f := bulkFlags
		if h >= minHeight {
			f |= flagInRecent
			s.recent = append(s.recent, windowBlock{id: firstID + chain.BlockID(j), height: h})
		}
		s.flags = append(s.flags, f)
	}

	// Every pool re-adopted at every skipped block, so the consensus floor
	// rode the tip through the whole stretch: one audited, batched advance.
	// The drained prefix carries references, so it enters the chain index
	// through the walk; the bulk blocks entered decided above.
	if err := s.rideTip(tip, finalHeight, drainedTip); err != nil {
		return 0, err
	}
	return k, nil
}
