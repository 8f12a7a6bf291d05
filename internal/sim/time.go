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
//
// Because the race never reads the clock, one race walk can carry several
// clock overlays at once: Runner.RunGroup takes the race and one
// difficulty.Rule per overlay, and the overlays share the walk, the
// settlement and the one unit-exponential draw per event, which each
// overlay scales by its own difficulty. Each overlay keeps its own clock,
// controller, block stamps and window bounds, and one walk of each newly
// settled segment feeds every controller, so every overlay's Result is
// bit-identical to a run of the race under its rule alone. Overlay 0 is
// the simulator's own clock and stamps into the tree's time column;
// overlays 1..N-1 keep their stamps in a column of their own, indexed and
// compacted like the per-block flags.

// timeStreamSalt derives the time stream's seed from the run seed. Any
// fixed non-zero constant works: rng.New expands the seed through
// splitmix64, so the salted stream is statistically independent of the
// event stream, and the salt is far outside the consecutive-seed window
// DeriveSeed uses within a batch.
const timeStreamSalt = 0xD1B54A32D192ED03

// TimeConfig configures the continuous-time axis. The zero value disables
// it: the simulator stays the timeless block-count engine, consuming no
// extra randomness and producing bit-identical results to the pre-time
// engine. Runner.RunGroup runs one race under several difficulty rules at
// once, sharing the walk and the exponential draw per event.
type TimeConfig struct {
	// Enabled turns the time axis on.
	Enabled bool

	// Difficulty selects the difficulty rule (zero: Static). Static keeps
	// difficulty at difficulty.InitialDifficulty; BitcoinStyle and EIP100
	// close the feedback loop through an engine-driven
	// difficulty.Controller.
	Difficulty difficulty.Params
}

// clockOverlay is one difficulty rule riding the race walk: its clock, its
// difficulty (a controller's, or the static initial value), its block
// stamps and its settlement-window time bounds.
type clockOverlay struct {
	// clock is the overlay's simulation time, paced by
	// difficulty.InitialDifficulty when ctrl is nil (static rule).
	clock float64
	ctrl  *difficulty.Controller

	// bounds holds the stamps of the Early window's last block and of the
	// Steady window's boundary block, recorded as settlement passes them.
	bounds [2]float64

	// stamps[id-idBase] is the block's timestamp under this overlay, for
	// overlays 1..N-1 (overlay 0 stamps into the tree's time column).
	stamps []float64
}

// Indices into clockOverlay.bounds.
const (
	earlyEnd = iota
	steadyStart
)

// init resets the overlay for one run under rule, reusing its controller
// when the rule matches.
func (o *clockOverlay) init(rule difficulty.Rule) {
	o.clock = 0
	o.bounds = [2]float64{}
	if rule == difficulty.Static {
		// Static difficulty needs no feedback: skip controller stepping
		// (and the per-event floor computation it requires) entirely.
		o.ctrl = nil
		return
	}
	if o.ctrl == nil || o.ctrl.Rule() != rule {
		// The rule was validated with the config; rebuilding cannot fail.
		ctrl, err := difficulty.NewController(difficulty.Params{Rule: rule})
		if err != nil {
			panic("sim: validated difficulty rule rejected: " + err.Error())
		}
		o.ctrl = ctrl
	} else {
		o.ctrl.Reset()
	}
}

// currentDifficulty returns the difficulty pacing the overlay's next
// inter-arrival: the controller's when the feedback loop is closed, the
// static initial value otherwise.
func (o *clockOverlay) currentDifficulty() float64 {
	if o.ctrl != nil {
		return o.ctrl.Difficulty()
	}
	return difficulty.InitialDifficulty
}

// overlay returns clock overlay k (0: the simulator's own).
func (s *simulator) overlay(k int) *clockOverlay {
	if k == 0 {
		return &s.clockOverlay
	}
	return &s.overlays[k-1]
}

// stampOf returns resident block id's timestamp under overlay k.
func (s *simulator) stampOf(k int, id chain.BlockID) float64 {
	if k == 0 {
		return s.tree.TimeOf(id)
	}
	return s.overlays[k-1].stamps[int(id)-s.idBase]
}

// advanceClock samples one unit exponential from the dedicated time stream
// and moves every overlay's clock by it scaled to the overlay's current
// difficulty (mean spacing equals the difficulty at unit total hash power).
// The event then creates exactly one block, stamped with these clocks: the
// tree takes overlay 0's stamp, and the extra overlays' stamps are appended
// here, so their columns stay aligned with the per-block flags while the
// timeless path carries no overlay code at all.
func (s *simulator) advanceClock() {
	u := s.timeRandom.ExpUnit()
	s.clock += u * s.currentDifficulty()
	for k := range s.overlays {
		o := &s.overlays[k]
		o.clock += u * o.currentDifficulty()
		o.stamps = append(o.stamps, o.clock)
	}
}

// stampBound records block id's stamp, under every overlay, as window
// bound b (earlyEnd or steadyStart).
func (s *simulator) stampBound(id chain.BlockID, b int) {
	s.bounds[b] = s.tree.TimeOf(id)
	for k := range s.overlays {
		o := &s.overlays[k]
		o.bounds[b] = o.stamps[int(id)-s.idBase]
	}
}

// observeSettled feeds the difficulty controllers every block the consensus
// floor has newly settled, in chain order. The floor only ever advances
// along the settled chain (every live branch descends from it), so the walk
// from the new floor down to the last observed block is exactly the newly
// settled segment; one walk serves every overlay, each controller reading
// the block's stamp under its own overlay. Uncle counts are read off the
// tree — only references the schedule can realize count, matching the
// settlement's UncleCount — so the controllers see the protocol's actual
// uncle production, not a model approximation.
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
		if s.ctrl != nil {
			s.ctrl.ObserveBlock(tree.TimeOf(b), counted)
		}
		for k := range s.overlays {
			if o := &s.overlays[k]; o.ctrl != nil {
				o.ctrl.ObserveBlock(o.stamps[int(b)-s.idBase], counted)
			}
		}
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

// initTime prepares the simulator's time axis for one run of cfg (defaults
// already applied) carrying one clock overlay per entry of rules, overlay 0
// first: reseed or create the dedicated time stream, reset each overlay
// (rebuilding controllers only when their rule changed), and rewind the
// settled observation cursor.
func (s *simulator) initTime(cfg Config, rules []difficulty.Rule) {
	s.timing = cfg.Time.Enabled
	s.observing = false
	s.observedTo = s.tree.Genesis()
	s.clock = 0
	if !s.timing {
		s.ctrl = nil
		s.overlays = s.overlays[:0]
		return
	}
	if s.timeRandom == nil {
		s.timeRandom = rng.New(timeSeed(cfg.Seed))
	} else {
		s.timeRandom.Reseed(timeSeed(cfg.Seed))
	}
	s.timeRandom.SetAntithetic(cfg.Antithetic)
	s.clockOverlay.init(rules[0])
	s.observing = s.ctrl != nil
	// Reslicing within capacity keeps earlier runs' controllers and stamp
	// columns for reuse.
	extra := rules[1:]
	s.overlays = s.overlays[:min(len(extra), cap(s.overlays))]
	for len(s.overlays) < len(extra) {
		s.overlays = append(s.overlays, clockOverlay{})
	}
	for k := range s.overlays {
		o := &s.overlays[k]
		o.init(extra[k])
		o.stamps = append(o.stamps[:0], 0) // genesis
		s.observing = s.observing || o.ctrl != nil
	}
}
