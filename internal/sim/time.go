package sim

import (
	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rng"
)

// This file is the simulator's continuous-time axis. The timeless engine
// measures everything in block events; enabling TimeConfig adds physical
// time on top: block events arrive with exponential inter-arrival times at
// rate 1/difficulty (the population's hash power is normalized to 1), every
// block is stamped with the simulation clock, and an optional
// difficulty.Controller closes the feedback loop — the engine feeds it each
// block as the consensus floor settles it, with its real timestamp and its
// actually referenced uncles counted off the tree, and the controller's
// difficulty paces the next inter-arrival draw.
//
// The time axis is an overlay: its randomness comes from a dedicated
// second stream (timeRandom), so the event/race stream consumes exactly the
// same draws whether time is enabled or not, and the block tree produced by
// a timed run is bit-identical to the timeless run at the same seed. The
// timeless path is in turn bit-identical to the pre-time engine (pinned by
// TestGoldenTimeless).

// timeStreamSalt derives the time stream's seed from the run seed. Any
// fixed non-zero constant works: rng.New expands the seed through
// splitmix64, so the salted stream is statistically independent of the
// event stream, and the salt is far outside the consecutive-seed window
// DeriveSeed uses within a batch.
const timeStreamSalt = 0xD1B54A32D192ED03

// TimeConfig configures the continuous-time axis. The zero value disables
// it: the simulator stays the timeless block-count engine, consuming no
// extra randomness and producing bit-identical results to the pre-time
// engine.
type TimeConfig struct {
	// Enabled turns the time axis on.
	Enabled bool

	// Difficulty configures the difficulty regime (defaults applied by
	// the simulator: rule Static, target rate 1, epoch
	// difficulty.DefaultEpoch, initial difficulty 1). Rule Static keeps
	// difficulty constant; BitcoinStyle and EIP100 close the feedback
	// loop through an engine-driven difficulty.Controller.
	Difficulty difficulty.Params
}

// currentDifficulty returns the difficulty pacing the next inter-arrival
// draw: the controller's when the feedback loop is closed, the static
// initial value otherwise.
func (s *simulator) currentDifficulty() float64 {
	if s.ctrl != nil {
		return s.ctrl.Difficulty()
	}
	return s.staticDifficulty
}

// advanceClock samples one exponential inter-arrival and moves the
// simulation clock: mean spacing equals the current difficulty (unit total
// hash power), one draw from the dedicated time stream per event.
func (s *simulator) advanceClock() {
	s.clock += s.timeRandom.ExpUnit() * s.currentDifficulty()
}

// observeSettled feeds the difficulty controller every block the consensus
// floor has newly settled, in chain order. The floor only ever advances
// along the settled chain (every live branch descends from it), so the walk
// from the new floor down to the last observed block is exactly the newly
// settled segment. Uncle counts are read off the tree — only references the
// schedule can realize count, matching the settlement's UncleCount — so the
// controller sees the protocol's actual uncle production, not a model
// approximation.
func (s *simulator) observeSettled() {
	// The end-of-event flushFloor guarantees s.floor equals
	// consensusFloor() here, so the observation reads the maintained floor
	// instead of re-walking common ancestors every event. The poolless
	// engine never resolves (the floor is pool-triggered); its consensus
	// floor is simply the public tip.
	floor := s.floor
	if len(s.pools) == 0 {
		floor = s.pubTip
	}
	if floor == s.observedTo {
		return
	}
	seg := s.obsScratch[:0]
	for b := floor; b != s.observedTo; {
		seg = append(seg, b)
		b = s.tree.ParentOf(b)
	}
	tree := s.tree
	for i := len(seg) - 1; i >= 0; i-- {
		b := seg[i]
		_, height, uncles := tree.BlockInfo(b)
		counted := 0
		for _, u := range uncles {
			if s.cfg.Schedule.Referenceable(height - tree.HeightOf(u)) {
				counted++
			}
		}
		s.ctrl.ObserveBlock(tree.TimeOf(b), counted)
	}
	s.obsScratch = seg
	s.observedTo = floor
}

// Window is one slice of the settled chain by height: its time bounds, its
// block production, and the rewards settled inside it (attributed to the
// slice containing the rewarding regular block; an uncle's reward lands in
// its nephew's slice, when the nephew is paid). Settlement accumulates both
// of the Result's windows as it streams over the chain (see Result.Early
// and Result.Steady for their boundaries).
type Window struct {
	// Start and End bound the slice in simulation time.
	Start, End float64

	// Regular and Uncles count the settled regular blocks inside the
	// slice and the uncles they reference.
	Regular, Uncles int

	// ByPool is the per-pool reward tally settled inside the slice,
	// indexed like Result.ByPool (entry 0: the honest crowd).
	ByPool []chain.Reward
}

// Duration returns the slice's length in simulation time.
func (w Window) Duration() float64 { return w.End - w.Start }

// RateOf returns one pool's absolute reward rate (reward per unit time)
// inside the slice.
func (w Window) RateOf(pool mining.PoolID) float64 {
	if pool < 0 || int(pool) >= len(w.ByPool) {
		return 0
	}
	return safeRate(w.ByPool[pool].Total(), w.Duration())
}

// TotalRate returns the system-wide absolute reward rate inside the slice.
func (w Window) TotalRate() float64 {
	var total float64
	for _, r := range w.ByPool {
		total += r.Total()
	}
	return safeRate(total, w.Duration())
}

// RegularRate returns the settled regular-block rate inside the slice.
func (w Window) RegularRate() float64 { return safeRate(float64(w.Regular), w.Duration()) }

// UncleRate returns the realized uncle rate inside the slice.
func (w Window) UncleRate() float64 { return safeRate(float64(w.Uncles), w.Duration()) }

// safeRate divides, mapping an empty time span to zero.
func safeRate(amount, duration float64) float64 {
	if duration <= 0 {
		return 0
	}
	return amount / duration
}

// timeSeed derives the dedicated time-stream seed for a run.
func timeSeed(seed uint64) uint64 { return seed ^ timeStreamSalt }

// initTime prepares the simulator's time axis for one run (cfg defaults
// already applied): reseed or create the dedicated time stream, reset or
// rebuild the difficulty controller, and rewind the clock and the settled
// observation cursor.
func (s *simulator) initTime(cfg Config) {
	s.clock = 0
	s.timing = cfg.Time.Enabled
	if !s.timing {
		s.ctrl = nil
		return
	}
	if s.timeRandom == nil {
		s.timeRandom = rng.New(timeSeed(cfg.Seed))
	} else {
		s.timeRandom.Reseed(timeSeed(cfg.Seed))
	}
	s.timeRandom.SetAntithetic(cfg.Antithetic)
	p := cfg.Time.Difficulty
	s.staticDifficulty = p.Initial
	if p.Rule == difficulty.Static {
		// Static difficulty needs no feedback: skip controller stepping
		// (and the per-event floor computation it requires) entirely.
		s.ctrl = nil
		return
	}
	if s.ctrl == nil || s.ctrl.Params() != p {
		// The params were validated with the config; rebuilding cannot
		// fail.
		ctrl, err := difficulty.NewController(p)
		if err != nil {
			panic("sim: validated difficulty params rejected: " + err.Error())
		}
		s.ctrl = ctrl
	} else {
		s.ctrl.Reset()
	}
	s.observedTo = s.tree.Genesis()
}
