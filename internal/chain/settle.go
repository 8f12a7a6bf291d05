package chain

import (
	"fmt"

	"github.com/ethselfish/ethselfish/internal/rewards"
)

// Reward is a per-miner reward tally, in units of the static block reward.
type Reward struct {
	// Static is the total static (regular block) reward.
	Static float64

	// Uncle is the total uncle reward.
	Uncle float64

	// Nephew is the total nephew reward.
	Nephew float64
}

// Total returns the sum of all reward components.
func (r Reward) Total() float64 { return r.Static + r.Uncle + r.Nephew }

// Add returns the component-wise sum of two reward tallies.
func (r Reward) Add(other Reward) Reward {
	return Reward{
		Static: r.Static + other.Static,
		Uncle:  r.Uncle + other.Uncle,
		Nephew: r.Nephew + other.Nephew,
	}
}

// UncleRef describes one realized uncle reference.
type UncleRef struct {
	// Uncle is the referenced stale block.
	Uncle BlockID

	// Nephew is the regular block referencing it.
	Nephew BlockID

	// Distance is Nephew.Height - Uncle.Height.
	Distance int
}

// Settlement is the outcome of settling rewards over a finished tree with
// respect to a chosen main-chain tip. Per-miner tallies are stored densely,
// indexed by MinerID, so settling never hashes.
type Settlement struct {
	// Tip is the main-chain tip the settlement was computed against.
	Tip BlockID

	// MinerRewards is the dense per-miner tally, indexed by MinerID.
	// IDs at or beyond its length earned nothing. The genesis block
	// earns no reward.
	MinerRewards []Reward

	// MinerSeen marks the IDs that appeared in the settlement (mined a
	// regular block or were referenced as an uncle) — an uncle
	// referenced at a zero-paying distance is seen with a zero tally.
	MinerSeen []bool

	// RegularCount is the number of reward-earning main-chain blocks
	// (genesis excluded).
	RegularCount int

	// UncleCount is the number of stale blocks referenced by main-chain
	// blocks.
	UncleCount int

	// StaleCount is the number of off-chain blocks that were never
	// referenced.
	StaleCount int

	// Refs lists every realized uncle reference.
	Refs []UncleRef
}

// see marks a miner as appearing in the settlement, growing the dense
// tallies as needed, and returns the ID as a valid index.
func (s *Settlement) see(id MinerID) int {
	for int(id) >= len(s.MinerRewards) {
		s.MinerRewards = append(s.MinerRewards, Reward{})
		s.MinerSeen = append(s.MinerSeen, false)
	}
	s.MinerSeen[id] = true
	return int(id)
}

// Classify returns each block's classification with respect to the
// settlement's main chain, indexed by BlockID.
func (t *Tree) Classify(tip BlockID) []Classification {
	out := make([]Classification, len(t.recs))
	for i := range out {
		out[i] = Stale
	}
	for _, id := range t.PathTo(tip) {
		out[id] = Regular
	}
	for _, id := range t.PathTo(tip) {
		for _, u := range t.UnclesOf(id) {
			if out[u] == Regular {
				// A main-chain block cannot be an uncle; ExtendAt
				// prevents referencing ancestors, so this would
				// mean the reference crossed chains.
				continue
			}
			out[u] = Uncle
		}
	}
	return out
}

// Settle computes rewards for the main chain ending at tip under the given
// schedule. Uncle references at distances the schedule cannot reference
// (possible when the tree was built with a laxer depth limit than the
// schedule) earn nothing but still count as uncles for rate accounting if
// and only if the schedule allows the distance; they are reported in Refs
// either way. It returns an error only for an invalid tip.
//
// Settle requires the full history (the walk descends to genesis) and
// panics once it crosses Base() of a compacted tree. The simulator settles
// with a StreamSettler, whose incremental tallies are bit-identical; Settle
// is the one-shot reference walk its oracle tests compare against.
func (t *Tree) Settle(tip BlockID, schedule rewards.Schedule) (Settlement, error) {
	if !t.Contains(tip) {
		return Settlement{}, fmt.Errorf("tip %d: %w", tip, ErrUnknownBlock)
	}
	s := Settlement{
		Tip:  tip,
		Refs: make([]UncleRef, 0, t.TotalUncleRefs()),
	}
	// One descending walk from the tip settles everything: per-block
	// tallies commute, and the stale count follows by conservation. The
	// chain is the length of almost every run, so the loop body stays
	// lean: the dense tallies are grown through see only when a new miner
	// ID appears, and uncle-free blocks (the vast majority) skip the
	// reference branch on the arena bounds alone.
	gen := t.Genesis()
	for id := tip; id != gen; id = BlockID(t.recs[t.mustIndex(id)].parent) {
		r := t.recs[int32(id)-t.base]
		s.RegularCount++
		m := int(r.miner)
		if m >= len(s.MinerRewards) {
			s.see(MinerID(m))
		}
		s.MinerSeen[m] = true
		s.MinerRewards[m].Static++
		if r.uncleStart == r.uncleEnd {
			continue
		}
		// Iterate uncles in reverse: the whole-slice reversal below
		// then restores both the ascending block order and each
		// block's stored reference order.
		blockUncles := t.uncles(r)
		for i := len(blockUncles) - 1; i >= 0; i-- {
			u := blockUncles[i]
			ur := t.recs[int32(u)-t.base]
			d := int(r.height - ur.height)
			s.Refs = append(s.Refs, UncleRef{Uncle: u, Nephew: id, Distance: d})
			if !schedule.Referenceable(d) {
				// Too deep for this schedule: the block stays a
				// stale block for accounting purposes.
				continue
			}
			s.UncleCount++
			s.MinerRewards[m].Nephew += schedule.Nephew(d)
			uncleMiner := s.see(MinerID(ur.miner))
			s.MinerRewards[uncleMiner].Uncle += schedule.Uncle(d)
		}
	}
	// The walk visited blocks tip-first with reversed per-block uncles;
	// one reversal yields genesis-to-tip order with stored uncle order —
	// exactly what the old one-pass-per-path formulation produced.
	for i, j := 0, len(s.Refs)-1; i < j; i, j = i+1, j-1 {
		s.Refs[i], s.Refs[j] = s.Refs[j], s.Refs[i]
	}
	// Every non-genesis block is exactly one of regular, uncle, or stale,
	// and a settled uncle is counted exactly once — validateUncle forbids
	// referencing a block twice on one chain — so the stale count follows
	// from the other two without marking and rescanning the whole tree.
	s.StaleCount = t.Len() - 1 - s.RegularCount - s.UncleCount
	return s, nil
}
