// Package sim implements the paper's event-driven selfish-mining simulator
// (Sec. V) on top of a real block tree, generalized from the paper's single
// selfish pool to K competing pools.
//
// Block-creation events arrive one at a time; each event's producer is drawn
// from the miner population by hash power. Each colluding pool (label 1..K)
// mines a private branch and runs its own Strategy (the default is the
// paper's Algorithm 1); honest miners (pool 0) follow the protocol: mine on
// the longest public branch, break ties with total probability gamma toward
// whichever published pool branches tie for the lead (split evenly among
// them), and reference every eligible uncle they can see. Rewards are
// settled over the tree's consensus chain, so the simulator validates the
// analytic model end to end: state occupancy, uncle distances, and revenue
// all emerge from the tree rather than from the model's formulas.
// Settlement streams: the decided prefix is folded into tallies as the
// consensus floor advances and is then evicted, so a run's memory is
// O(race window) at any horizon (see stream.go). The paper's setting is the
// K = 1 special case and is bit-compatible with the pre-generalization
// engine.
//
// For long runs the simulator can audit itself: Config.Audit enables a
// runtime invariant auditor (reward conservation, timestamp and
// consensus-floor monotonicity, and the incremental uncle-candidate set,
// the floor-anchored chain index and uncle eligibility each checked against
// a brute-force rescan) that never changes results; see
// AuditConfig.
package sim

import (
	"errors"
	"fmt"
	"math"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/rng"
)

// genesisMiner is the reserved miner ID for the genesis block.
const genesisMiner chain.MinerID = 0

// maxReferenceWindow caps how far back the simulator scans for uncle
// candidates when the schedule has no depth limit. Races longer than this
// occur with probability below (alpha/beta)^64 < 1e-5 at alpha <= 0.45, far
// beneath simulation resolution.
const maxReferenceWindow = 64

// occDim is the side length of the dense (Ls x Lh) occupancy grid. Branch
// lengths reach it only in races longer than the reference window, which
// the rare-overflow map absorbs; everything else is a single array
// increment per event instead of a map insertion.
const occDim = 64

// Per-block flag bits, one byte per resident block (simulator.flags).
const (
	// flagPublished: honest miners can see the block. Unpublished blocks
	// are additionally visible to the pool that mined them.
	flagPublished uint8 = 1 << iota

	// flagInRecent: the block is in the uncle-candidate window.
	flagInRecent

	// flagDecided: the block is on the decided consensus chain — the
	// consensus floor or one of its ancestors — and so on every future
	// block's chain.
	flagDecided

	// flagRefDecided: a block on the decided consensus chain references
	// this block as an uncle, so no future block may reference it again.
	flagRefDecided
)

// windowBlock is one entry of the uncle-candidate window: a block ID with
// its height denormalized next to it, so window maintenance stays within
// one cache-friendly array instead of chasing tree records.
type windowBlock struct {
	id     chain.BlockID
	height int
}

// ErrBadConfig is returned for invalid simulation configurations.
var ErrBadConfig = errors.New("sim: invalid configuration")

// Config describes one simulation.
type Config struct {
	// Population supplies miners, hash powers, and pool labels. Required.
	Population *mining.Population

	// Gamma is the honest tie-breaking parameter (Sec. IV-A): the total
	// fraction of honest power that mines on a published pool branch
	// during a tie, split evenly across however many pool branches tie
	// for the lead.
	Gamma float64

	// Schedule is the reward schedule (zero value: Ethereum).
	Schedule rewards.Schedule

	// Blocks is the number of block-creation events to simulate.
	Blocks int

	// Seed makes the run reproducible.
	Seed uint64

	// MaxUnclesPerBlock caps uncle references per block. Zero means
	// unlimited (the paper's model); Ethereum uses 2.
	MaxUnclesPerBlock int

	// Strategies assigns one strategy per pool, indexed by PoolID-1
	// (pool 1 first). When set, its length must equal the population's
	// pool count and every entry must be non-nil. Nil means Algorithm1
	// (the paper's strategy) for every pool.
	Strategies []Strategy

	// Time configures the continuous-time axis: exponential inter-arrival
	// times paced by difficulty, per-block timestamps, and an optional
	// engine-driven difficulty controller. The zero value keeps the
	// timeless block-count engine, bit-identical to the pre-time path.
	Time TimeConfig

	// Antithetic runs the simulation on the antithetic mirror of the
	// seed's random streams: every uniform draw u is reflected to
	// (1 - 2^-53) - u (see rng.Source.SetAntithetic). A (seed, plain) /
	// (seed, antithetic) pair of runs is negatively correlated, so the
	// pair's mean estimates the same quantities at reduced variance — the
	// antithetic variance-reduction estimator in internal/experiments.
	Antithetic bool

	// Audit enables the runtime invariant auditor (see AuditConfig): the
	// engine adversarially checks its own bookkeeping — reward
	// conservation, timestamp and consensus-floor monotonicity, and the
	// incremental fork-child set, the floor-anchored chain index and uncle
	// eligibility against brute-force rescans — while the run executes.
	// The zero value disables it; auditing never changes results, it can
	// only fail the run with ErrAudit.
	Audit AuditConfig
}

func (c Config) withDefaults() Config {
	if c.Schedule.MaxDepth() == 0 {
		c.Schedule = rewards.Ethereum()
	}
	return c
}

func (c Config) validate() error {
	if c.Population == nil {
		return fmt.Errorf("%w: population is required", ErrBadConfig)
	}
	if math.IsNaN(c.Gamma) || c.Gamma < 0 || c.Gamma > 1 {
		return fmt.Errorf("%w: gamma %v out of [0,1]", ErrBadConfig, c.Gamma)
	}
	if c.Blocks <= 0 {
		return fmt.Errorf("%w: blocks %d must be positive", ErrBadConfig, c.Blocks)
	}
	if c.MaxUnclesPerBlock < 0 {
		return fmt.Errorf("%w: negative uncle limit", ErrBadConfig)
	}
	if c.Time.Enabled {
		if err := c.Time.Difficulty.Rule.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	if err := c.Audit.validate(); err != nil {
		return err
	}
	if c.Strategies != nil {
		if got, want := len(c.Strategies), c.Population.NumPools(); got != want {
			return fmt.Errorf("%w: %d strategies for %d pools", ErrBadConfig, got, want)
		}
		for i, s := range c.Strategies {
			if s == nil {
				return fmt.Errorf("%w: nil strategy for pool %d", ErrBadConfig, i+1)
			}
		}
	}
	return nil
}

// strategyFor resolves the strategy pool p (1-based) runs.
func (c Config) strategyFor(p int) Strategy {
	if c.Strategies != nil {
		return c.Strategies[p-1]
	}
	return Algorithm1{}
}

// poolState is one pool's view of the race: a private branch of blocks
// mined on top of root, the first published of them announced. root is the
// block the pool last rejoined the network at (its fork point as of its
// last adopt, rebase, or commit); a rival's later rebase can move the
// public chain off it, leaving the true divergence deeper. The pool's
// frame numbers are measured against root (see frame) — both Ls and Lh
// shift by the same amount in that case, so length comparisons, and hence
// strategy decisions, stay exact.
type poolState struct {
	strat Strategy

	// table is strat compiled into dense reaction grids (nil when the
	// strategy is ineligible or tables are disabled): the per-event
	// decision is then a table load with no interface dispatch and no
	// per-event validation (see DecisionTable).
	table *DecisionTable

	// root is the block the pool's branch builds on; rootHeight is its
	// height, denormalized so frame computations never touch the tree.
	root       chain.BlockID
	rootHeight int

	// blocks is the pool's private branch above root, oldest first; the
	// first published of them are visible to honest miners.
	blocks    []chain.BlockID
	published int
}

// tip returns the top of the pool's branch (root when the branch is empty).
func (p *poolState) tip() chain.BlockID {
	if len(p.blocks) == 0 {
		return p.root
	}
	return p.blocks[len(p.blocks)-1]
}

// publishedTip returns the top of the pool's announced prefix.
func (p *poolState) publishedTip() chain.BlockID {
	if p.published == 0 {
		return p.root
	}
	return p.blocks[p.published-1]
}

// simulator holds the evolving race state. The race bookkeeping generalizes
// Algorithm 1 to K pools: pubTip is the tip of the public chain honest
// miners extend; each pool holds a private branch forking at its own root.
// A pool's race frame is the (Ls, Lh, published) triple of Algorithm 1
// measured from its root: Ls = len(blocks), Lh = pubHeight - rootHeight,
// so Ls > Lh exactly when the pool's private chain is strictly longer than
// the public one. With a single pool this reduces to the paper's
// (ls, lh, published) race state bit for bit.
//
// A zero simulator is reusable: init prepares it for a run and retains all
// storage from previous runs, so one simulator per worker amortizes the
// ~100k-block tree and scratch allocations across a whole batch.
type simulator struct {
	cfg    Config
	random *rng.Source
	tree   *chain.Tree

	// Continuous-time state (see time.go). timing mirrors
	// cfg.Time.Enabled. The embedded clockOverlay is overlay 0 (clock,
	// controller, stamps in the tree) and overlays the rest of a
	// RunGroup's; every clock advances by the same exponential draw from
	// the dedicated timeRandom stream per event, so the event/race stream
	// is identical with time on or off. observing reports that some
	// overlay runs a controller, observedTo is the deepest settled block
	// already fed to the controllers, and obsScratch the reusable
	// settled-segment buffer.
	timing bool
	clockOverlay
	overlays   []clockOverlay
	observing  bool
	timeRandom *rng.Source
	observedTo chain.BlockID
	obsScratch []chain.BlockID

	// flags[id - idBase] holds the block's flag bits (flagPublished and
	// friends). idBase tracks the tree's eviction base, so the per-block
	// array stays a dense ID index while the settled prefix is evicted out
	// from under it.
	//
	// The flagDecided and flagRefDecided bits are the floor-anchored chain
	// index: every future block's chain runs through the consensus floor,
	// so at or below the floor it is the decided chain, and "is b on the
	// new block's chain" or "does the new block's chain already reference
	// b" is one bit test there. advanceFloor enters each newly decided
	// segment into the index, so uncle eligibility walks only the race
	// segment above the floor and the candidate purge walks nothing.
	flags  []uint8
	idBase int

	// str is the streaming settlement (see stream.go); flushAt is the
	// floor height at which it next settles a batch.
	str     *streamState
	flushAt int

	// keepTree disables eviction and sizes the tree for the whole run, so
	// the final tree holds every block. Only RunTrace sets it.
	keepTree bool

	// steadyEvent is the event index at which the loop records the Steady
	// window's boundary (markSteadyStart); math.MaxInt once recorded or on
	// timeless runs, so the per-event check is one comparison.
	steadyEvent int

	// recent is a sliding window of blocks used as uncle candidates;
	// entries carry their height so trimming and filtering never touch
	// the tree. flagInRecent tracks membership (blocks leave only by
	// trimming). The live window is recent[recentHead:]: trimming
	// advances the head cursor instead of compacting, and the rare
	// compaction (once the dead prefix reaches recentCompactHead) keeps
	// the backing array bounded — one amortized entry move per trim
	// instead of a whole-window memmove per event.
	recent     []windowBlock
	recentHead int

	// forkChildren lists the blocks in recent whose parent has at least
	// two children, sorted by ID (= creation order, the order recent
	// holds them). Only such blocks can ever be referenced as uncles: an
	// eligible uncle is off the referencing chain while its parent is on
	// it, so the parent has a second, on-chain child. eligibleUncles
	// scans this set — almost always empty or a handful — instead of the
	// whole candidate window, making the per-event uncle scan O(forks)
	// rather than O(window). The set is shared by all pools; visibility
	// is filtered per viewer at scan time.
	forkChildren []windowBlock

	// pools holds the per-pool race state; pools[i] is PoolID i+1.
	pools []poolState

	// pubTip is the tip of the public chain honest miners currently
	// extend; pubHeight is its height.
	pubTip    chain.BlockID
	pubHeight int

	// floor is the last computed consensus floor: the deepest block every
	// future block must descend from (the common ancestor of the public
	// tip and all pool branches). It advances at race resolutions and
	// gates candidate purging.
	floor chain.BlockID

	// floorDirty marks that the race topology changed this event (an
	// adopt, a commit, or a rebase — the only operations that can move the
	// consensus floor), deferring the floor recompute and candidate purge
	// to one flushFloor call at the end of the event instead of once per
	// reaction inside the fixed-point loop. Between events the flushed
	// floor always equals consensusFloor(), which is what lets the
	// per-event settled-floor observation read it instead of recomputing.
	floorDirty bool

	// occ is the pool-indexed set of dense (Ls x Lh) occupancy grids
	// (grid p-1 records pool p's frame; a poolless population keeps one
	// grid pinned to (0,0)), each indexed Ls*occDim+Lh. occOverflow
	// absorbs the rare states beyond a grid (races longer than the
	// reference window); each map is allocated when first needed and
	// cleared, not dropped, between runs.
	occ         [][]int64
	occOverflow []map[core.State]int64
	window      int

	// leaderScratch is reused by honest fork choice to collect the pool
	// indices whose published branches tie for the public lead.
	leaderScratch []int

	// Scratch buffers reused by eligibleUncles so the per-event hot path
	// stays allocation-free after warm-up. chainScratch maps the race
	// segment's heights to the new block's ancestors (indexed by height
	// offset), refScratch collects uncles those ancestors already
	// reference, candScratch holds filter survivors, and uncleScratch
	// backs the returned candidate list (safe to reuse: chain.Tree.ExtendAt
	// copies the uncle list it is given).
	chainScratch []chain.BlockID
	refScratch   []chain.BlockID
	uncleScratch []chain.BlockID
	candScratch  []windowBlock

	// aud is the runtime invariant auditor (see audit.go); nil unless
	// cfg.Audit.Enabled, so the hot path pays one nil check per event.
	aud *auditor

	// originFast enables the plain loop's race-origin fast path: when
	// every pool is tabled and its table plainly adopts at (0, 1, 0), an
	// honest block found with every pool parked at the origin has a fully
	// determined outcome (extend the tip, every pool re-adopts, the floor
	// rides up one), so the event skips the leader scan, the reaction
	// loop, and the floor recompute while consuming identical draws.
	originFast bool

	// events counts block-creation events by producing pool (entry 0: the
	// honest crowd), feeding Result.EventsByPool. The selfish share of
	// events is the control-variate statistic with exactly known mean
	// alpha.
	events []int64
}

// init prepares the simulator for one run of cfg, carrying one clock
// overlay per entry of rules (see time.go), reusing any storage left over
// from previous runs. cfg must already have defaults applied and be
// validated, and rules checked as RunGroup checks them.
func (s *simulator) init(cfg Config, rules []difficulty.Rule) {
	window := cfg.Schedule.MaxDepth()
	if window > maxReferenceWindow {
		window = maxReferenceWindow
	}
	// Size the tree (and the per-block arrays below) up front so they
	// rarely reallocate mid-run. The resident set is a window over the run,
	// a few flush batches deep; only a full-tree run needs one record per
	// event.
	blocksHint := 4 * (window + 1 + streamFlushBatch)
	if s.keepTree || cfg.Blocks < blocksHint {
		blocksHint = cfg.Blocks
	}
	treeCfg := chain.Config{
		// The tree enforces the protocol's reference-depth rule so a
		// buggy strategy cannot slip an ineligible uncle through.
		MaxUncleDepth:     window,
		MaxUnclesPerBlock: cfg.MaxUnclesPerBlock,
		BlocksHint:        blocksHint,
	}
	s.cfg = cfg
	s.window = window
	if s.tree == nil {
		s.tree = chain.NewTree(treeCfg, genesisMiner)
	} else {
		s.tree.Reset(treeCfg, genesisMiner)
	}
	if s.random == nil {
		s.random = rng.New(cfg.Seed)
	} else {
		s.random.Reseed(cfg.Seed)
	}
	s.random.SetAntithetic(cfg.Antithetic)
	if cap(s.flags) < blocksHint+1 {
		s.flags = make([]uint8, 1, blocksHint+1)
	} else {
		s.flags = s.flags[:1]
	}
	s.flags[0] = flagPublished | flagDecided // genesis: public, and the first floor
	s.recent = s.recent[:0]
	s.recentHead = 0
	s.forkChildren = s.forkChildren[:0]

	numPools := cfg.Population.NumPools()
	if cap(s.pools) < numPools {
		s.pools = make([]poolState, numPools)
	} else {
		s.pools = s.pools[:numPools]
	}
	genesis := s.tree.Genesis()
	for i := range s.pools {
		p := &s.pools[i]
		p.strat = cfg.strategyFor(i + 1)
		p.table = tableFor(p.strat)
		p.root = genesis
		p.rootHeight = 0
		p.blocks = p.blocks[:0]
		p.published = 0
	}
	s.pubTip = genesis
	s.pubHeight = 0
	s.floor = genesis
	s.floorDirty = false

	grids := numPools
	if grids == 0 {
		grids = 1
	}
	if cap(s.occ) < grids {
		s.occ = make([][]int64, grids)
		s.occOverflow = make([]map[core.State]int64, grids)
	} else {
		s.occ = s.occ[:grids]
		s.occOverflow = s.occOverflow[:grids]
	}
	for i := range s.occ {
		if s.occ[i] == nil {
			s.occ[i] = make([]int64, occDim*occDim)
		} else {
			clear(s.occ[i])
		}
		clear(s.occOverflow[i])
	}
	if cap(s.events) < numPools+1 {
		s.events = make([]int64, numPools+1)
	} else {
		s.events = s.events[:numPools+1]
		clear(s.events)
	}
	s.initTime(cfg, rules)
	s.initStream(cfg)
	s.initOriginFast()
	s.initAudit(cfg)
}

// initOriginFast decides whether the plain loop may take the race-origin
// fast path. The probe is table-only — a pool without a compiled table
// keeps the plain path rather than having its strategy called at init —
// and requires at least one pool (the poolless engine's floor never
// advances, which the fast path could not mirror).
func (s *simulator) initOriginFast() {
	s.originFast = false
	if len(s.pools) == 0 {
		return
	}
	for i := range s.pools {
		t := s.pools[i].table
		if t == nil || !t.adoptsAtOrigin {
			return
		}
	}
	s.originFast = true
}

// frame returns pool index i's race frame: the (Ls, Lh, published) triple
// of Algorithm 1 measured from the pool's root.
func (s *simulator) frame(i int) (ls, lh, published int) {
	p := &s.pools[i]
	return len(p.blocks), s.pubHeight - p.rootHeight, p.published
}

// recordState tallies every pool's frame observed just before an event.
func (s *simulator) recordState() {
	if len(s.pools) == 0 {
		s.occ[0][0]++ // the all-honest network idles at (0, 0)
		return
	}
	for i := range s.pools {
		ls, lh, _ := s.frame(i)
		if ls < occDim && lh >= 0 && lh < occDim {
			s.occ[i][ls*occDim+lh]++
			continue
		}
		if s.occOverflow[i] == nil {
			s.occOverflow[i] = make(map[core.State]int64)
		}
		s.occOverflow[i][core.State{S: ls, H: lh}]++
	}
}

// occupancyMap materializes pool index i's per-state event counts (the
// Result view), sized to its exact member count so it never regrows.
func (s *simulator) occupancyMap(i int) Occupancy {
	members := len(s.occOverflow[i])
	for _, n := range s.occ[i] {
		if n != 0 {
			members++
		}
	}
	out := make(Occupancy, members)
	for idx, n := range s.occ[i] {
		if n != 0 {
			out[core.State{S: idx / occDim, H: idx % occDim}] = n
		}
	}
	for state, n := range s.occOverflow[i] {
		out[state] = n
	}
	return out
}

// poolOf returns the pool label of the miner that produced a block.
func (s *simulator) poolOf(id chain.BlockID) mining.PoolID {
	return s.cfg.Population.PoolOf(s.tree.MinerOf(id))
}

// addForkChild inserts b into the ID-sorted fork-child set. Blocks enter at
// most once: newborns on arrival, a previously only child exactly at its
// parent's one-to-two transition.
func (s *simulator) addForkChild(b windowBlock) {
	fc := append(s.forkChildren, b)
	i := len(fc) - 1
	for i > 0 && fc[i-1].id > b.id {
		fc[i] = fc[i-1]
		i--
	}
	fc[i] = b
	s.forkChildren = fc
}

// removeForkChild drops b from the fork-child set if it is there.
func (s *simulator) removeForkChild(b chain.BlockID) {
	for i, x := range s.forkChildren {
		if x.id == b {
			s.forkChildren = append(s.forkChildren[:i], s.forkChildren[i+1:]...)
			return
		}
	}
}

// extend creates a block, records it in the candidate window, and returns
// its ID.
func (s *simulator) extend(parent chain.BlockID, miner chain.MinerID, uncles []chain.BlockID, visible bool) (chain.BlockID, error) {
	// Fork-child bookkeeping feeds eligibleUncles: the new block becomes
	// a fork child if its parent already had a child, and a previously
	// only child becomes one alongside it (unless the window already
	// trimmed it — a trimmed block can never be referenced again).
	firstSibling := s.tree.FirstChildOf(parent)
	id, err := s.tree.ExtendAt(parent, miner, uncles, s.clock)
	if err != nil {
		return chain.NoBlock, fmt.Errorf("sim: extending chain: %w", err)
	}
	height := s.tree.HeightOf(id)
	if firstSibling != chain.NoBlock {
		if s.tree.NextSiblingOf(firstSibling) == id && s.flags[int(firstSibling)-s.idBase]&flagInRecent != 0 {
			// Siblings share a height, so the denormalized height
			// of the promoted first child equals the newborn's.
			s.addForkChild(windowBlock{id: firstSibling, height: height})
		}
		// The newborn has the largest ID: appending stays sorted.
		s.forkChildren = append(s.forkChildren, windowBlock{id: id, height: height})
	}
	f := flagInRecent
	if visible {
		f |= flagPublished
	}
	s.flags = append(s.flags, f)
	s.recent = append(s.recent, windowBlock{id: id, height: height})
	// Trim the candidate window: drop blocks too old to ever be
	// referenced again.
	s.trimRecent(height - s.window - 1)
	return id, nil
}

// recentCompactHead is the dead-prefix length at which trimRecent compacts
// the candidate window's backing array. Until then trims only advance the
// head cursor, so the steady state pays one amortized entry move per trim
// and the array stays within a couple of windows of its live size.
const recentCompactHead = 64

// trimRecent drops candidate-window entries below minHeight (they can never
// be referenced again) by advancing the head cursor, compacting the backing
// array only when the dead prefix has grown to recentCompactHead entries.
func (s *simulator) trimRecent(minHeight int) {
	head := s.recentHead
	for head < len(s.recent) && s.recent[head].height < minHeight {
		old := s.recent[head].id
		s.flags[int(old)-s.idBase] &^= flagInRecent
		// Scanning the tiny fork-child set directly is cheaper than
		// asking the tree whether old is a fork child first.
		if len(s.forkChildren) > 0 {
			s.removeForkChild(old)
		}
		head++
	}
	if head >= recentCompactHead {
		n := copy(s.recent, s.recent[head:])
		s.recent = s.recent[:n]
		head = 0
	}
	s.recentHead = head
}

// publishPool marks the first n blocks of pool p's branch as visible to
// honest miners.
func (s *simulator) publishPool(p *poolState, n int) {
	for i := p.published; i < n && i < len(p.blocks); i++ {
		s.flags[int(p.blocks[i])-s.idBase] |= flagPublished
	}
	if n > p.published {
		p.published = n
	}
}

// consensusFloor returns the deepest block every future block must descend
// from: the common ancestor of the public tip and every pool's branch (its
// private tip, or its root while the branch is empty — the pool's next
// block forks there).
func (s *simulator) consensusFloor() chain.BlockID {
	floor := s.pubTip
	for i := range s.pools {
		if tip := s.pools[i].tip(); tip != floor {
			floor = s.tree.CommonAncestor(floor, tip)
		}
	}
	return floor
}

// resolve recomputes the consensus floor after a pool committed or adopted
// and, when the floor advanced, purges uncle candidates the new floor
// decides for good. With a single pool the floor is exactly the paper's
// race base, and resolve fires at the same points the two-party engine's
// race reset did. The only error it can return is an ErrAudit from the
// floor-monotonicity check; with auditing off it always succeeds.
func (s *simulator) resolve() error {
	floor := s.consensusFloor()
	if floor == s.floor {
		return nil
	}
	if s.aud != nil {
		// Every floor advance is audited, regardless of the sampling
		// interval: the floor must only ever move down the settled chain.
		if err := s.aud.auditFloor(s, s.floor, floor); err != nil {
			return err
		}
	}
	s.advanceFloor(floor)
	if len(s.forkChildren) > 0 {
		s.purgeForkChildren()
	}
	return nil
}

// advanceFloor moves the consensus floor up to floor, a descendant of the
// current one, and enters the newly decided segment into the floor-anchored
// chain index: each block between the two floors becomes decided, and each
// uncle such a block references becomes referenced on the decided chain.
// The walk covers exactly the floor's advance, so its cost is amortized one
// block per event. The references it reads are resident: a decided block
// references nothing more than a window below the old floor, far above the
// eviction bound.
func (s *simulator) advanceFloor(floor chain.BlockID) {
	for b := floor; b != s.floor; {
		parent, _, uncles := s.tree.BlockInfo(b)
		s.flags[int(b)-s.idBase] |= flagDecided
		for _, u := range uncles {
			s.flags[int(u)-s.idBase] |= flagRefDecided
		}
		b = parent
	}
	s.floor = floor
}

// decided reports whether b is on the decided consensus chain (the floor or
// one of its ancestors). b must be resident.
func (s *simulator) decided(b chain.BlockID) bool {
	return s.flags[int(b)-s.idBase]&flagDecided != 0
}

// purgeForkChildren drops candidates the consensus floor makes permanently
// ineligible. Every future block descends from the floor, so a candidate can
// be discarded for good when the decided chain decides its fate: a block on
// that chain references it (flagRefDecided; the already-referenced rule
// always rejects it), it is on that chain itself (an ancestor of every
// future block), or its parent sits at or below the floor yet off that
// chain (never attachable again). The first rule reads the index bit, set
// per decided block, because in a race the same stale block is often
// referenced from the winning private branch and from the losing public one.
// Candidates attached above the floor stay: they may yet be referenced
// from a live private branch. Each rule is a bit test against the
// floor-anchored chain index, so the purge costs O(candidates) and walks
// nothing. Purging here keeps the fork-child set down to genuine open
// candidates, so eligibleUncles' fast path fires instead of re-rejecting
// dead candidates every event until the window trims them — and
// eligibleUncles relies on the last two rules: it applies its chain tests
// only above the floor.
func (s *simulator) purgeForkChildren() {
	t := s.tree
	floorHeight := t.HeightOf(s.floor)
	kept := s.forkChildren[:0]
	for _, cand := range s.forkChildren {
		c := cand.id
		remove := false
		switch {
		case s.flags[int(c)-s.idBase]&flagRefDecided != 0:
			remove = true // referenced on the consensus chain
		case s.decided(c):
			remove = true // on the consensus chain itself
		case cand.height-1 <= floorHeight && !s.decided(t.ParentOf(c)):
			remove = true // parent off every future chain
		}
		if remove {
			continue
		}
		kept = append(kept, cand)
	}
	s.forkChildren = kept
}

// eligibleUncles returns the uncle references a block mined on parent may
// include: blocks within the reference window that the viewer can see,
// whose parent lies on the new block's chain, that are not on that chain
// themselves, and that no chain ancestor already references. The viewer is
// a pool label: honest miners (0) see only published blocks; a pool
// additionally sees its own unpublished blocks (visibility is per-camp —
// referencing an own stale private block reveals it in the nephew's
// header). parent must descend from (or be) the consensus floor, which
// every block an event builds on does.
//
// The new block's chain is the decided chain up to the floor plus the race
// segment above it. Only the race segment is walked — O(race depth), a
// handful of blocks, not O(reference window). At or below the floor the
// already-referenced test reads the floor-anchored chain index, and the
// floor purge has already settled the chain tests.
//
// The returned slice aliases a scratch buffer owned by the simulator; it is
// only valid until the next eligibleUncles call. Callers hand it straight to
// the tree, which copies it.
func (s *simulator) eligibleUncles(parent chain.BlockID, viewer mining.PoolID) []chain.BlockID {
	// Fast path: an eligible uncle is off the new block's chain while
	// its parent is on it, so its parent has a second child — only the
	// incrementally maintained fork-child set needs scanning, and it is
	// empty in long honest stretches.
	if len(s.forkChildren) == 0 {
		return nil
	}
	tree := s.tree
	newHeight := tree.HeightOf(parent) + 1
	lowest := newHeight - s.window
	if lowest < 1 {
		lowest = 1
	}

	// Cheap per-candidate filters first (height window, visibility); the
	// race-segment walk below is only paid when something survives them.
	cands := s.candScratch[:0]
	minH := newHeight
	for _, cand := range s.forkChildren {
		if cand.height < lowest || cand.height >= newHeight {
			continue
		}
		if s.flags[int(cand.id)-s.idBase]&flagPublished == 0 &&
			(viewer == mining.HonestPool || s.poolOf(cand.id) != viewer) {
			continue // invisible to this viewer
		}
		if cand.height < minH {
			minH = cand.height
		}
		cands = append(cands, cand)
	}
	s.candScratch = cands
	if len(cands) == 0 {
		return nil
	}

	// Map the race segment's heights to the new block's ancestors and
	// collect the uncles they reference: from the parent down to just
	// above the floor, and no deeper than the lowest survivor's parent
	// height. base is the deepest height mapped; chainAt[h-base] holds the
	// ancestor at height h. (The already-referenced rule must scan the
	// ancestors' own reference lists: competing private branches can each
	// reference the same published candidate.)
	floorHeight := tree.HeightOf(s.floor)
	base := minH - 1
	if base <= floorHeight {
		base = floorHeight + 1
	}
	span := newHeight - base
	if cap(s.chainScratch) < span {
		s.chainScratch = make([]chain.BlockID, span)
	}
	chainAt := s.chainScratch[:span]
	referenced := s.refScratch[:0]
	cursor := parent
	for h := newHeight - 1; h >= base; h-- {
		up, _, uncles := tree.BlockInfo(cursor)
		chainAt[h-base] = cursor
		referenced = append(referenced, uncles...)
		cursor = up
	}
	s.refScratch = referenced

	// Full eligibility on the survivors. The chain tests only ever fail
	// in the race segment: a candidate at or below the floor is off the
	// decided chain, and one whose parent is at or below the floor hangs
	// off it, or the floor purge would have dropped it (a candidate
	// created since the last purge builds on a descendant of the floor).
	// cands is sorted by ID, i.e. creation order — the order the
	// candidate window yields.
	out := s.uncleScratch[:0]
	for _, cand := range cands {
		c := cand.id
		if cand.height > floorHeight {
			if chainAt[cand.height-base] == c {
				continue // on the new block's own chain
			}
			if cand.height-1 > floorHeight && chainAt[cand.height-1-base] != tree.ParentOf(c) {
				continue // not attached to the new block's chain
			}
		}
		if s.flags[int(c)-s.idBase]&flagRefDecided != 0 || containsBlock(referenced, c) {
			continue // already referenced on the new block's chain
		}
		out = append(out, c)
	}
	s.uncleScratch = out
	if limit := s.cfg.MaxUnclesPerBlock; limit > 0 && len(out) > limit {
		// Keep the most recent (closest, highest-reward) candidates,
		// as a profit-maximizing miner would.
		out = out[len(out)-limit:]
	}
	return out
}

// containsBlock reports whether id occurs in ids. The lists scanned here
// hold at most two uncles per window height, so a linear scan beats a map
// both in time and in allocations.
func containsBlock(ids []chain.BlockID, id chain.BlockID) bool {
	for _, other := range ids {
		if other == id {
			return true
		}
	}
	return false
}

// poolEvent handles a block mined by pool index pi (Algorithm 1, lines 1-7,
// with the decision delegated to the pool's strategy). A block mined in
// private is invisible to everyone else, so only the mining pool is
// consulted — unless its reaction advances the public chain (a commit), in
// which case every other pool reacts to the new public state.
func (s *simulator) poolEvent(pi int, miner chain.MinerID) error {
	p := &s.pools[pi]
	uncles := s.eligibleUncles(p.tip(), mining.PoolID(pi+1))
	id, err := s.extend(p.tip(), miner, uncles, false)
	if err != nil {
		return err
	}
	p.blocks = append(p.blocks, id)

	before := s.pubHeight
	if err := s.reactPool(pi); err != nil {
		return err
	}
	if s.pubHeight != before {
		return s.reactOthers(pi)
	}
	return nil
}

// reactOthers consults every pool except skip about an advanced public
// chain, in pool order with fresh frames, and repeats the pass (now
// including skip) until the public chain quiesces: a commit mid-pass
// advances the chain for pools consulted before it, and every pool must
// have seen the final public state before the next event. The loop
// terminates because only commits re-trigger it and each commit strictly
// raises the public height, bounded by the pools' finite private branches.
func (s *simulator) reactOthers(skip int) error {
	for {
		before := s.pubHeight
		for i := range s.pools {
			if i == skip {
				continue
			}
			if err := s.reactHonest(i); err != nil {
				return err
			}
		}
		if s.pubHeight == before {
			return nil
		}
		skip = -1
	}
}

// reactPool consults pool pi about its own fresh block and applies the
// decision: a pre-validated table load for tabled strategies, the live
// interface call (with per-event validation) otherwise. Overflow frames and
// frames whose compiled reaction was invalid fall back to the live path, so
// errors surface at the same event with the same message either way.
func (s *simulator) reactPool(pi int) error {
	p := &s.pools[pi]
	ls, lh, published := len(p.blocks), s.pubHeight-p.rootHeight, p.published
	if t := p.table; t != nil {
		if e, ok := entryAt(t.pool, ls, lh, published); ok && e != tableInvalid {
			return s.applyEntry(pi, e)
		}
	}
	return s.applyReaction(pi, p.strat.ReactToPool(ls, lh, published))
}

// reactHonest consults pool pi about an advanced public chain and applies
// the decision, with the same table-first dispatch as reactPool.
func (s *simulator) reactHonest(pi int) error {
	p := &s.pools[pi]
	ls, lh, published := len(p.blocks), s.pubHeight-p.rootHeight, p.published
	if t := p.table; t != nil {
		if e, ok := entryAt(t.honest, ls, lh, published); ok && e != tableInvalid {
			return s.applyEntry(pi, e)
		}
	}
	return s.applyReaction(pi, p.strat.ReactToHonest(ls, lh, published))
}

// applyEntry executes a compiled (already validated) table entry for pool
// pi. The keep entry returns without touching any state, which is the
// common case across long stretches of a race.
func (s *simulator) applyEntry(pi int, e int8) error {
	switch {
	case e == tableKeep:
		return nil
	case e > 0:
		s.publishPool(&s.pools[pi], int(e))
		return nil
	case e == tableAdopt:
		return s.adopt(pi)
	default:
		return s.commit(pi)
	}
}

// applyReaction validates and executes pool index pi's live strategy
// decision.
func (s *simulator) applyReaction(pi int, r Reaction) error {
	p := &s.pools[pi]
	ls, lh, published := s.frame(pi)
	if err := validateReaction(r, ls, lh, published); err != nil {
		return fmt.Errorf("%s (pool %d): at (%d,%d): %w", p.strat.Name(), pi+1, ls, lh, err)
	}
	switch {
	case r.Adopt:
		return s.adopt(pi)
	case r.Commit:
		return s.commit(pi)
	default:
		s.publishPool(p, r.PublishTo)
	}
	return nil
}

// adopt abandons pool pi's private branch and rejoins the public chain. The
// floor recompute is deferred to the end-of-event flushFloor.
func (s *simulator) adopt(pi int) error {
	p := &s.pools[pi]
	p.blocks = p.blocks[:0]
	p.published = 0
	p.root = s.pubTip
	p.rootHeight = s.pubHeight
	s.floorDirty = true
	return nil
}

// commit publishes pool pi's whole branch; strictly longest, it becomes the
// public chain (validation — per-event or at table compile — guarantees
// ls > lh, so the branch is non-empty). The floor recompute is deferred to
// the end-of-event flushFloor.
func (s *simulator) commit(pi int) error {
	p := &s.pools[pi]
	ls := len(p.blocks)
	s.publishPool(p, ls)
	tip := p.blocks[ls-1]
	s.pubTip = tip
	s.pubHeight = p.rootHeight + ls
	p.blocks = p.blocks[:0]
	p.published = 0
	p.root = tip
	p.rootHeight = s.pubHeight
	s.floorDirty = true
	return nil
}

// flushFloor recomputes the consensus floor once per event, after every
// reaction has been applied. Deferring the recompute out of the fixed-point
// reaction loop is result-identical: nothing reads the floor mid-event, a
// batched advance composes the per-reaction advances (ancestry is
// transitive, so floor monotonicity audits the same invariant), and the
// candidate purge is monotone in the floor — candidates an intermediate
// floor would have purged are purged by the final one, and eligibleUncles'
// own filters independently reject them meanwhile.
func (s *simulator) flushFloor() error {
	if !s.floorDirty {
		return nil
	}
	s.floorDirty = false
	return s.resolve()
}

// clampIndex maps a unit-interval fraction to an index in [0, n), guarding
// the u == 1-epsilon rounding edge.
func clampIndex(fraction float64, n int) int {
	idx := int(fraction * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// pickLeader chooses uniformly among the tied leading pools, consuming a
// draw only when there is an actual choice.
func (s *simulator) pickLeader(leaders []int) int {
	if len(leaders) == 1 {
		return leaders[0]
	}
	return leaders[clampIndex(s.random.Float64(), len(leaders))]
}

// honestEvent handles a block mined by an honest miner (Algorithm 1,
// lines 8-20, including every pool's reaction).
func (s *simulator) honestEvent(miner chain.MinerID) error {
	// Fork choice: longest public branch. The candidates are the honest
	// public tip and every pool's published prefix; a strictly highest
	// branch wins outright, and when branches tie for the lead the
	// honest miner splits gamma across the tied pool branches (a
	// strategy that over-publishes makes its public branch strictly
	// longer, in which case every honest miner follows it).
	bestHeight := s.pubHeight
	leaders := s.leaderScratch[:0]
	for i := range s.pools {
		p := &s.pools[i]
		if p.published == 0 {
			continue
		}
		h := p.rootHeight + p.published
		switch {
		case h > bestHeight:
			bestHeight = h
			leaders = append(leaders[:0], i)
		case h == bestHeight:
			leaders = append(leaders, i)
		}
	}
	s.leaderScratch = leaders

	targetPool := -1
	switch {
	case len(leaders) == 0:
		// The honest tip leads alone.
	case bestHeight > s.pubHeight:
		// Pool branches strictly lead: honest miners must follow one;
		// several tie only among themselves (uniform pick).
		targetPool = s.pickLeader(leaders)
	default:
		// Tie with the honest tip: total probability gamma goes to the
		// pool branches, split evenly; one uniform draw decides both
		// questions. With one tied pool this is exactly
		// Bernoulli(gamma), the paper's tie rule — including consuming
		// no randomness at the degenerate gamma values.
		gamma := s.cfg.Gamma
		switch {
		case gamma <= 0:
			// The honest tip always wins the tie.
		case gamma >= 1:
			targetPool = s.pickLeader(leaders)
		default:
			if u := s.random.Float64(); u < gamma {
				targetPool = leaders[clampIndex(u/gamma, len(leaders))]
			}
		}
	}

	target := s.pubTip
	if targetPool >= 0 {
		target = s.pools[targetPool].publishedTip()
	}
	uncles := s.eligibleUncles(target, mining.HonestPool)
	id, err := s.extend(target, miner, uncles, true)
	if err != nil {
		return err
	}

	if targetPool >= 0 {
		// The new block extends a pool's published prefix: that prefix
		// becomes public history (a rebase). The pool keeps only its
		// blocks above the old published tip — which moves the pool's fork
		// point, so the consensus floor may advance even if every pool
		// then keeps.
		p := &s.pools[targetPool]
		p.root = target
		p.rootHeight += p.published
		n := copy(p.blocks, p.blocks[p.published:])
		p.blocks = p.blocks[:n]
		p.published = 0
		s.floorDirty = true
	}
	s.pubTip = id
	s.pubHeight = bestHeight + 1

	// Every pool's reaction (Algorithm 1 lines 10-20, or a variant), in
	// pool order with fresh frames.
	return s.reactOthers(-1)
}

// atRaceOrigin reports whether every pool is parked at the race origin
// (empty private branch rooted at the public tip) and the public tip is
// childless, so an honest block there cannot fork.
func (s *simulator) atRaceOrigin() bool {
	for i := range s.pools {
		p := &s.pools[i]
		if len(p.blocks) != 0 || p.root != s.pubTip {
			return false
		}
	}
	return s.tree.FirstChildOf(s.pubTip) == chain.NoBlock
}

// originHonest handles an honest block found with every pool parked at the
// race origin and the tip childless (the race-origin fast path, see
// originFast): the outcome is fully determined — extend the tip, every pool
// re-adopts to it (the compiled tables say so), the floor rides up one,
// nothing forks — so play exactly that, skipping the leader scan, the
// reaction loop and the floor recompute. The draws consumed are exactly
// the general path's: the winner sample, and no leader or gamma draw (none
// exists at the origin).
func (s *simulator) originHonest(miner chain.MinerID) error {
	// The tip is childless, so the append is a pure leaf extension:
	// AppendLeaf mutates exactly as extend would (no siblings, no uncles,
	// no fork children), and the window bookkeeping below mirrors extend's
	// for a block at height pubHeight+1. Fall back to extend if the
	// childless assumption ever fails.
	id, leaf := s.tree.AppendLeaf(s.pubTip, miner, s.clock)
	if leaf {
		// The floor rides up onto the new block, so it enters the chain
		// index decided; it references nothing.
		s.flags = append(s.flags, flagPublished|flagInRecent|flagDecided)
		s.recent = append(s.recent, windowBlock{id: id, height: s.pubHeight + 1})
		s.trimRecent(s.pubHeight - s.window)
	} else {
		var err error
		id, err = s.extend(s.pubTip, miner, nil, true)
		if err != nil {
			return err
		}
		s.flags[int(id)-s.idBase] |= flagDecided
	}
	// The new block is the public tip and every pool's root: each pool
	// re-adopted to it, so the consensus floor rides up onto it. The
	// advance is audited like resolve's; the block is already flagged
	// decided and references nothing, so the chain index needs no walk.
	s.pubTip = id
	s.pubHeight++
	for i := range s.pools {
		p := &s.pools[i]
		p.root = id
		p.rootHeight = s.pubHeight
	}
	if s.aud != nil {
		if err := s.aud.auditFloor(s, s.floor, id); err != nil {
			return err
		}
	}
	s.floor = id
	if len(s.forkChildren) > 0 {
		s.purgeForkChildren()
	}
	return nil
}

// run executes the configured number of block events, settling the decided
// prefix as it goes. The races still in flight when the run ends are
// excluded from settlement (the chain is settled at the consensus floor).
// Every event ends through the same tail: the deferred floor recompute,
// the controllers' settled-block observation, the streaming settlement and
// the sampled audit.
func (s *simulator) run() error {
	pop := s.cfg.Population
	for i := 0; i < s.cfg.Blocks; i++ {
		if i >= s.steadyEvent {
			s.markSteadyStart()
		}
		s.recordState()
		if s.timing {
			s.advanceClock()
		}
		miner := pop.Sample(s.random)
		s.events[miner.Pool]++
		var err error
		switch {
		case miner.Pool != mining.HonestPool:
			err = s.poolEvent(int(miner.Pool)-1, miner.ID)
		case s.originFast && len(s.forkChildren) == 0 && s.atRaceOrigin():
			err = s.originHonest(miner.ID)
		default:
			err = s.honestEvent(miner.ID)
		}
		if err != nil {
			return err
		}
		if err := s.flushFloor(); err != nil {
			return err
		}
		if s.observing {
			s.observeSettled()
		}
		if s.flushDue() {
			if err := s.settleDecided(); err != nil {
				return err
			}
		}
		if s.aud != nil {
			if err := s.auditEvent(i); err != nil {
				return err
			}
		}
	}
	return nil
}
