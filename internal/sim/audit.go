package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/mining"
)

// This file is the simulator's runtime invariant auditor: an opt-in
// adversarial check of the engine's own bookkeeping, run while the
// simulation executes rather than after the fact. The audited invariants
// are the ones the rest of the codebase silently relies on:
//
//   - Reward conservation: settling the chain-so-far classifies every
//     non-genesis block as exactly one of regular, uncle, or stale, and the
//     settled rewards equal what the schedule mints for those blocks and
//     references (the uncle/nephew bookkeeping of Niu-Feng's schedule).
//   - Timestamp monotonicity: on the continuous-time axis, every block's
//     timestamp is at or after its parent's, on every branch, and never
//     ahead of the clock — under every clock overlay, each against its
//     own stamps and clock.
//   - Consensus-floor monotonicity: the floor only ever advances along the
//     settled chain — each new floor descends from the previous one.
//   - Consensus-floor value: the maintained floor is the common ancestor of
//     the public tip and every pool's branch, recomputed by plain parent
//     walks that read none of the tree's jump pointers.
//   - Fork-child candidate set: the incrementally maintained uncle
//     candidate set matches a brute-force rescan of the candidate window
//     (same blocks, same heights, same order), with the floor-purge rules
//     applied from scratch.
//   - Floor-anchored chain index: the decided and referenced-on-decided-
//     chain marks match a brute-force walk down from the floor, and
//     eligibleUncles — which walks only the race segment above the floor —
//     returns exactly what a full-depth eligibility scan of the candidate
//     window returns, for every block the next event can build on.
//   - Origin fast path: while the plain loop takes its race-origin
//     shortcut, every pool's live strategy plainly adopts at (0, 1, 0), the
//     compiled-table property the shortcut relies on.
//
// With Audit disabled (the zero Config) none of this code runs and the hot
// path is untouched. The sampled mode (SampleEvery > 1) keeps the audit
// cheap enough for CI race runs over full-size workloads.

// ErrAudit is returned when a runtime invariant audit fails. Any such error
// means the engine's internal state is inconsistent — a bug, not a bad
// configuration.
var ErrAudit = errors.New("sim: invariant audit failed")

// AuditConfig configures the runtime invariant auditor. The zero value
// disables it.
type AuditConfig struct {
	// Enabled turns the auditor on.
	Enabled bool

	// SampleEvery audits every Nth block event (and the final state).
	// Zero or one audits every event — exhaustive, and O(window) per event
	// for the fork-child rescan and the conservation settle; CI-scale runs
	// use a sparse sample (e.g. 1024).
	SampleEvery int
}

func (a AuditConfig) validate() error {
	if a.SampleEvery < 0 {
		return fmt.Errorf("%w: negative audit sample interval", ErrBadConfig)
	}
	return nil
}

// auditor holds the auditor's cursor state for one run.
type auditor struct {
	// every is the sampling interval (>= 1).
	every int

	// event is the index of the block event being audited.
	event int

	// timeChecked is the highest block ID whose timestamp has been
	// verified against its parent; the incremental sweep covers every
	// block still resident when a sample fires (a block settled and
	// evicted between sparse samples is vouched for by the settlement
	// oracle suite instead).
	timeChecked chain.BlockID

	// scratch backs the brute-force fork-child rescan.
	scratch []windowBlock

	// flagScratch, chainScratch, refScratch and uncleScratch back the
	// brute-force chain-index and eligibility checks.
	flagScratch  []uint8
	chainScratch []chain.BlockID
	refScratch   []chain.BlockID
	uncleScratch []chain.BlockID

	// streamScratch is the throwaway settler copy the conservation check
	// advances to the consensus floor.
	streamScratch chain.StreamSettler
}

// initAudit prepares the auditor for one run (or disables it).
func (s *simulator) initAudit(cfg Config) {
	if !cfg.Audit.Enabled {
		s.aud = nil
		return
	}
	if s.aud == nil {
		s.aud = &auditor{}
	}
	a := s.aud
	a.every = cfg.Audit.SampleEvery
	if a.every < 1 {
		a.every = 1
	}
	a.event = 0
	a.timeChecked = s.tree.Genesis()
}

// afterEvent runs the sampled audits after block event i has been fully
// applied (including every pool's reaction).
func (s *simulator) auditEvent(i int) error {
	a := s.aud
	a.event = i
	if (i+1)%a.every != 0 {
		return nil
	}
	return a.check(s)
}

// auditFinal audits the end-of-run state exactly once, so even a sparse
// sample always checks the state the settlement will read.
func (s *simulator) auditFinal() error {
	if s.aud == nil {
		return nil
	}
	return s.aud.check(s)
}

// check runs every invariant audit against the simulator's current state.
func (a *auditor) check(s *simulator) error {
	if err := a.checkTimestamps(s); err != nil {
		return err
	}
	if err := a.checkFloor(s); err != nil {
		return err
	}
	if err := a.checkForkChildren(s); err != nil {
		return err
	}
	if err := a.checkChainIndex(s); err != nil {
		return err
	}
	if err := a.checkEligibility(s); err != nil {
		return err
	}
	if err := a.checkOriginFast(s); err != nil {
		return err
	}
	return a.checkConservation(s)
}

// checkOriginFast re-proves the race-origin fast path's premise while it is
// on: every pool's live strategy must plainly adopt at the (0, 1, 0) frame,
// or the origin events the fast path played without consulting it were
// wrong. The fast path read the compiled tables; the re-probe calls the
// strategy itself, so a table that drifted from its strategy (an
// impossible-by-construction state this audit exists to catch) fails here
// rather than corrupting results silently. At that frame ls = 0 forces any
// valid PublishTo to zero.
func (a *auditor) checkOriginFast(s *simulator) error {
	if !s.originFast {
		return nil
	}
	for i := range s.pools {
		r := s.pools[i].strat.ReactToHonest(0, 1, 0)
		if !r.Adopt || r.Commit || validateReaction(r, 0, 1, 0) != nil {
			return a.violation("origin fast path on but pool %d does not plainly adopt at (0,1,0)", i+1)
		}
	}
	return nil
}

// violation formats one audit failure with its event coordinate.
func (a *auditor) violation(format string, args ...any) error {
	return fmt.Errorf("%w: at event %d: %s", ErrAudit, a.event, fmt.Sprintf(format, args...))
}

// checkTimestamps verifies per-branch timestamp monotonicity incrementally
// under every clock overlay: every block created since the last audit must
// be stamped at or after its parent and no later than the overlay's clock,
// which covers every branch of the tree exactly once per run. A timeless
// run stamps every block zero and passes trivially.
func (a *auditor) checkTimestamps(s *simulator) error {
	t := s.tree
	for k := range s.overlays {
		if n := len(s.overlays[k].stamps); n != len(s.flags) {
			return a.violation("overlay %d holds %d stamps for %d resident blocks", k+1, n, len(s.flags))
		}
	}
	start := a.timeChecked + 1
	if base := t.Base(); start < base {
		// Streaming eviction outran the sweep: resume at the resident
		// base (the evicted blocks' stamps are gone either way).
		start = base
	}
	for id := start; int(id) < t.Len(); id++ {
		parent := t.ParentOf(id)
		if parent < t.Base() {
			// The parent's record is evicted; only the comparison is
			// lost, the block's own stamp is still clock-bounded below.
			a.timeChecked = id
			continue
		}
		for k := 0; k <= len(s.overlays); k++ {
			at, parentAt := s.stampOf(k, id), s.stampOf(k, parent)
			if at < parentAt {
				return a.violation("overlay %d: timestamp regression: block %d at %v before parent %d at %v",
					k, id, at, parent, parentAt)
			}
			if clock := s.overlay(k).clock; s.timing && at > clock {
				return a.violation("overlay %d: timestamp ahead of clock: block %d at %v, clock %v",
					k, id, at, clock)
			}
		}
		a.timeChecked = id
	}
	return nil
}

// auditFloor verifies consensus-floor monotonicity at a floor advance: the
// new floor must descend from the previous one (the floor only ever moves
// down the settled chain). Called from resolve, so every advance is
// checked regardless of the sampling interval.
func (a *auditor) auditFloor(s *simulator, from, to chain.BlockID) error {
	if to != from && !s.tree.IsAncestor(from, to) {
		return a.violation("consensus floor moved off its own chain: %d (height %d) -> %d (height %d)",
			from, s.tree.HeightOf(from), to, s.tree.HeightOf(to))
	}
	return nil
}

// checkFloor recomputes the consensus floor from scratch, as the common
// ancestor of the public tip and every pool's branch found by plain parent
// steps, and requires the maintained floor to equal it. The walk is the
// independent oracle for chain.Tree.CommonAncestor's jump-pointer climb,
// so it must not call it. A poolless population keeps no floor.
func (a *auditor) checkFloor(s *simulator) error {
	if len(s.pools) == 0 {
		return nil
	}
	t := s.tree
	want := s.pubTip
	for i := range s.pools {
		for b := s.pools[i].tip(); want != b; {
			if t.HeightOf(want) >= t.HeightOf(b) {
				want = t.ParentOf(want)
			} else {
				b = t.ParentOf(b)
			}
		}
	}
	if want != s.floor {
		return a.violation("consensus floor %d (height %d), parent walk from the tips finds %d (height %d)",
			s.floor, t.HeightOf(s.floor), want, t.HeightOf(want))
	}
	return nil
}

// onSettledChain reports whether b lies on the settled chain through the
// floor (genesis..floor inclusive).
func onSettledChain(t *chain.Tree, b, floor chain.BlockID) bool {
	return b == floor || t.IsAncestor(b, floor)
}

// checkForkChildren rebuilds the uncle-candidate set by brute force — a
// full rescan of the recent window with the floor-purge rules applied from
// scratch — and requires the incrementally maintained set to match block
// for block, height for height, in the same (creation) order. Whether the
// settled chain references a candidate is read from the settled blocks'
// own uncle lists, never from the chain index or the tree's
// referenced-by links.
func (a *auditor) checkForkChildren(s *simulator) error {
	t := s.tree
	// The floor settlement runs against: a poolless population's
	// maintained floor stays at genesis, which eviction releases (and it
	// never forks, so the purge rules are vacuous there either way).
	floor := s.streamFloor()
	floorHeight := t.HeightOf(floor)
	window := s.recent[s.recentHead:]
	// Every uncle the settled chain references above the window's lowest
	// height: a referencer sits above its uncle, so the walk down from the
	// floor stops there.
	minHeight := floorHeight
	for _, wb := range window {
		minHeight = min(minHeight, wb.height)
	}
	settledRefs := a.refScratch[:0]
	for b := floor; t.HeightOf(b) > minHeight; b = t.ParentOf(b) {
		settledRefs = append(settledRefs, t.UnclesOf(b)...)
	}
	a.refScratch = settledRefs
	expected := a.scratch[:0]
	for _, wb := range window {
		parent := t.ParentOf(wb.id)
		if t.NextSiblingOf(t.FirstChildOf(parent)) == chain.NoBlock {
			continue // only child: can never be an uncle
		}
		// The floor-purge rules, evaluated from scratch: a candidate is
		// dead once the settled chain through the floor decides it.
		if slices.Contains(settledRefs, wb.id) {
			continue // referenced on the consensus chain
		}
		if onSettledChain(t, wb.id, floor) {
			continue // on the consensus chain itself
		}
		if wb.height-1 <= floorHeight && !onSettledChain(t, parent, floor) {
			continue // parent off every future chain
		}
		expected = append(expected, wb)
	}
	a.scratch = expected

	got := s.forkChildren
	if len(got) != len(expected) {
		return a.violation("fork-child set has %d candidates, brute-force rescan finds %d (%v vs %v)",
			len(got), len(expected), got, expected)
	}
	for i := range got {
		if got[i] != expected[i] {
			return a.violation("fork-child set diverges at entry %d: %+v, brute-force rescan finds %+v",
				i, got[i], expected[i])
		}
	}
	return nil
}

// checkChainIndex rebuilds the floor-anchored chain index by brute force —
// the decided chain as the floor and its resident ancestors, and the
// referenced-on-decided-chain marks from those blocks' own uncle lists —
// and requires every resident block's index bits to match. (A resident
// block's referencers are resident too: they have larger IDs, and eviction
// drops an ID prefix.) The poolless engine's floor never advances and its
// chain never forks, so it keeps no index.
func (a *auditor) checkChainIndex(s *simulator) error {
	if len(s.pools) == 0 {
		return nil
	}
	t := s.tree
	base := t.Base()
	resident := t.Len() - int(base)
	if len(s.flags) != resident {
		return a.violation("%d per-block flags for %d resident blocks", len(s.flags), resident)
	}
	want := slices.Grow(a.flagScratch[:0], resident)[:resident]
	clear(want)
	for b := s.floor; ; {
		want[b-base] |= flagDecided
		for _, u := range t.UnclesOf(b) {
			if u >= base {
				want[u-base] |= flagRefDecided
			}
		}
		parent := t.ParentOf(b)
		if parent == chain.NoBlock || parent < base {
			break
		}
		b = parent
	}
	a.flagScratch = want
	const indexBits = flagDecided | flagRefDecided
	for i, w := range want {
		if got := s.flags[i] & indexBits; got != w {
			return a.violation("chain index of block %d (height %d): bits %02b, brute-force walk from floor %d finds %02b",
				base+chain.BlockID(i), t.HeightOf(base+chain.BlockID(i)), got, s.floor, w)
		}
	}
	return nil
}

// checkEligibility compares eligibleUncles against a brute-force scan of the
// whole candidate window for every block the next event can build on: the
// public tip and each announced pool prefix for honest miners, and each
// pool's private tip for that pool. The brute force maps the new block's
// chain over the full reference window and collects every reference on it,
// reading nothing from the chain index.
func (a *auditor) checkEligibility(s *simulator) error {
	if err := a.compareEligible(s, s.pubTip, mining.HonestPool); err != nil {
		return err
	}
	for i := range s.pools {
		p := &s.pools[i]
		if p.published > 0 {
			if err := a.compareEligible(s, p.publishedTip(), mining.HonestPool); err != nil {
				return err
			}
		}
		if err := a.compareEligible(s, p.tip(), mining.PoolID(i+1)); err != nil {
			return err
		}
	}
	return nil
}

// compareEligible checks eligibleUncles for one (parent, viewer) pair
// against the uncle rules applied to every candidate-window entry from
// scratch, in window (creation) order, truncated to the uncle cap the same
// way eligibleUncles truncates.
func (a *auditor) compareEligible(s *simulator, parent chain.BlockID, viewer mining.PoolID) error {
	t := s.tree
	newHeight := t.HeightOf(parent) + 1
	lowest := max(newHeight-s.window, 1)
	bottom := lowest - 1
	chainAt := slices.Grow(a.chainScratch[:0], newHeight-bottom)[:newHeight-bottom]
	refs := a.refScratch[:0]
	cursor := parent
	for h := newHeight - 1; h >= bottom; h-- {
		chainAt[h-bottom] = cursor
		refs = append(refs, t.UnclesOf(cursor)...)
		cursor = t.ParentOf(cursor)
	}
	a.chainScratch, a.refScratch = chainAt, refs
	want := a.uncleScratch[:0]
	for _, wb := range s.recent[s.recentHead:] {
		c := wb.id
		switch {
		case wb.height < lowest || wb.height >= newHeight:
		case s.flags[int(c)-s.idBase]&flagPublished == 0 && (viewer == mining.HonestPool || s.poolOf(c) != viewer):
		case chainAt[wb.height-bottom] == c:
		case chainAt[wb.height-1-bottom] != t.ParentOf(c):
		case containsBlock(refs, c):
		default:
			want = append(want, c)
		}
	}
	a.uncleScratch = want
	if limit := s.cfg.MaxUnclesPerBlock; limit > 0 && len(want) > limit {
		want = want[len(want)-limit:]
	}
	if got := s.eligibleUncles(parent, viewer); !slices.Equal(got, want) {
		return a.violation("eligible uncles on parent %d for viewer %d: %v, brute-force scan finds %v",
			parent, viewer, got, want)
	}
	return nil
}

// conservationTolerance bounds the relative float drift allowed between two
// summation orders of the same reward total.
const conservationTolerance = 1e-9

// checkConservation verifies reward conservation on the chain settled so
// far, whose prefix may already be evicted. It advances a throwaway copy of
// the live settler to the consensus floor (the exact walk final assembly
// will take) and re-proves the invariants from the extended tallies: the
// settled chain length matches the floor height, static rewards pay one
// per regular block, the per-miner uncle/nephew tallies sum to the
// schedule's accumulated mint, and the implied stale count is sane.
func (a *auditor) checkConservation(s *simulator) error {
	floor := s.consensusFloor()
	clone := &a.streamScratch
	s.str.settler.CloneInto(clone)
	if err := clone.Advance(s.tree, floor, chain.SettleHooks{}); err != nil {
		return a.violation("streaming settle to floor %d: %v", floor, err)
	}
	if clone.RegularCount() != s.tree.HeightOf(floor) {
		return a.violation("settled chain length %d, floor height %d",
			clone.RegularCount(), s.tree.HeightOf(floor))
	}
	minted := s.tree.Len() - 1 // logical length counts evicted blocks
	stale := minted - clone.RegularCount() - clone.UncleCount()
	if stale < 0 {
		return a.violation("block conservation: regular %d + uncle %d exceeds minted %d",
			clone.RegularCount(), clone.UncleCount(), minted)
	}
	var total chain.Reward
	for _, r := range clone.MinerRewards() {
		total.Static += r.Static
		total.Uncle += r.Uncle
		total.Nephew += r.Nephew
	}
	if total.Static != float64(clone.RegularCount()) {
		return a.violation("static rewards %v, want one per %d regular blocks",
			total.Static, clone.RegularCount())
	}
	if !closeEnough(total.Uncle, clone.MintedUncle()) || !closeEnough(total.Nephew, clone.MintedNephew()) {
		return a.violation("reward conservation: tallied uncle %v nephew %v, schedule minted uncle %v nephew %v",
			total.Uncle, total.Nephew, clone.MintedUncle(), clone.MintedNephew())
	}
	return nil
}

// closeEnough compares two float totals up to summation-order drift.
func closeEnough(got, want float64) bool {
	scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
	return math.Abs(got-want) <= conservationTolerance*scale
}
