package chain

import (
	"fmt"

	"github.com/ethselfish/ethselfish/internal/rewards"
)

// StreamSettler settles the decided prefix of a chain incrementally, so a
// long-horizon run never needs the one-shot descending Settle walk (which
// requires the full history) and the tree can evict everything already
// settled.
//
// The settler consumes the chain ascending: each Advance call extends the
// settled prefix from the previous settled tip to a descendant of it, adding
// every newly decided block's static reward and realized uncle references
// into the same dense per-miner tallies Settle produces. The two orders sum
// the same multiset of reward values, and every value in a reward schedule
// is a dyadic rational with totals far below 2^53 (Ethereum's (8-d)/8 and
// 1/32, Bitcoin's and the tests' constants), so each float addition is exact
// and the accumulated tallies are bit-identical to the one-shot walk — the
// property the simulator's oracle and fuzz suites pin.
//
// Counts follow the same rules as Settle: RegularCount is the settled chain
// length, UncleCount counts schedule-referenceable references only, and the
// stale count is left to the caller (minted − regular − uncles at assembly
// time, using the tree's logical Len which includes evicted records).
type StreamSettler struct {
	schedule rewards.Schedule

	// tip and height are the last settled chain block and its height; the
	// next Advance must target a descendant of tip.
	tip    BlockID
	height int

	minerRewards []Reward
	minerSeen    []bool
	regularCount int
	uncleCount   int

	// mintedUncle and mintedNephew accumulate the total uncle and nephew
	// rewards granted, giving the streaming conservation audit its
	// expected totals without a Refs list.
	mintedUncle  float64
	mintedNephew float64

	// scratch reverses each Advance's descending walk into ascending
	// settle order; its length is bounded by the advance stride, not the
	// run.
	scratch []BlockID
}

// NewStreamSettler returns a settler whose settled prefix is just the
// genesis block (which earns no reward).
func NewStreamSettler(schedule rewards.Schedule) *StreamSettler {
	ss := &StreamSettler{}
	ss.Reset(schedule)
	return ss
}

// Reset re-initializes the settler in place for a fresh run, retaining tally
// storage (Runner reuse).
func (ss *StreamSettler) Reset(schedule rewards.Schedule) {
	ss.schedule = schedule
	ss.tip = 0
	ss.height = 0
	for i := range ss.minerRewards {
		ss.minerRewards[i] = Reward{}
		ss.minerSeen[i] = false
	}
	ss.minerRewards = ss.minerRewards[:0]
	ss.minerSeen = ss.minerSeen[:0]
	ss.regularCount = 0
	ss.uncleCount = 0
	ss.mintedUncle = 0
	ss.mintedNephew = 0
}

// SettledHeight returns the settled prefix's height.
func (ss *StreamSettler) SettledHeight() int { return ss.height }

// RegularCount returns the number of settled reward-earning chain blocks;
// it always equals SettledHeight.
func (ss *StreamSettler) RegularCount() int { return ss.regularCount }

// UncleCount returns the number of schedule-referenceable uncle references
// settled so far.
func (ss *StreamSettler) UncleCount() int { return ss.uncleCount }

// MintedUncle returns the total uncle reward granted so far.
func (ss *StreamSettler) MintedUncle() float64 { return ss.mintedUncle }

// MintedNephew returns the total nephew reward granted so far.
func (ss *StreamSettler) MintedNephew() float64 { return ss.mintedNephew }

// MinerRewards returns the dense per-miner tallies of the settled prefix,
// indexed by MinerID. The slice is owned by the settler; callers copy before
// mutating.
func (ss *StreamSettler) MinerRewards() []Reward { return ss.minerRewards }

// MinerSeen marks the miner IDs that have appeared in the settled prefix,
// parallel to MinerRewards.
func (ss *StreamSettler) MinerSeen() []bool { return ss.minerSeen }

// CloneInto deep-copies the settler's state into dst (reusing dst's
// storage), so an audit can advance a throwaway copy to the consensus floor
// without disturbing the live settled prefix.
func (ss *StreamSettler) CloneInto(dst *StreamSettler) {
	dst.schedule = ss.schedule
	dst.tip = ss.tip
	dst.height = ss.height
	dst.minerRewards = append(dst.minerRewards[:0], ss.minerRewards...)
	dst.minerSeen = append(dst.minerSeen[:0], ss.minerSeen...)
	dst.regularCount = ss.regularCount
	dst.uncleCount = ss.uncleCount
	dst.mintedUncle = ss.mintedUncle
	dst.mintedNephew = ss.mintedNephew
}

// errNotDescendant reports an Advance target off the settled tip's chain.
func errNotDescendant(to, tip BlockID) error {
	return fmt.Errorf("chain: settle target %d does not descend from settled tip %d", to, tip)
}

// see grows the dense tallies to cover id and marks it seen.
func (ss *StreamSettler) see(id int32) int {
	for int(id) >= len(ss.minerRewards) {
		ss.minerRewards = append(ss.minerRewards, Reward{})
		ss.minerSeen = append(ss.minerSeen, false)
	}
	ss.minerSeen[id] = true
	return int(id)
}

// SettleHooks are optional observation callbacks for StreamSettler.Advance.
// Either may be nil; neither may mutate the tree or the settler.
type SettleHooks struct {
	// OnBlock fires once per newly settled chain block, in ascending
	// order, before the block's references.
	OnBlock func(id BlockID, height int)

	// OnRef fires for every realized uncle reference
	// (schedule-referenceable or not — exactly the entries Settle would
	// append to Refs), in ascending block order with each block's stored
	// reference order.
	OnRef func(UncleRef)
}

// Advance settles the chain blocks strictly above the current settled tip up
// to and including "to", which must be a descendant of the settled tip (or
// the settled tip itself, a no-op). Every block on that span and every uncle
// it references must still be resident in t — the streaming simulator
// guarantees this by settling before evicting and by the uncle-window bound.
// Advance never retains t.
func (ss *StreamSettler) Advance(t *Tree, to BlockID, hooks SettleHooks) error {
	if to == ss.tip {
		return nil
	}
	if !t.Contains(to) {
		return fmt.Errorf("settle target %d: %w", to, ErrUnknownBlock)
	}
	// Collect the new span tip-down, then settle it in reverse (ascending)
	// order. The walk also proves the descendant precondition: it must
	// land exactly on the settled tip. This is the engine's settlement hot
	// path, so both passes read the record array directly: one record
	// load per block and pass.
	span := ss.scratch[:0]
	cursor := int32(to)
	for cursor != int32(ss.tip) {
		if cursor < t.base {
			return errNotDescendant(to, ss.tip)
		}
		r := &t.recs[cursor-t.base]
		if int(r.height) <= ss.height {
			return errNotDescendant(to, ss.tip)
		}
		span = append(span, BlockID(cursor))
		cursor = r.parent
	}
	ss.scratch = span
	for i := len(span) - 1; i >= 0; i-- {
		id := span[i]
		r := t.recs[int32(id)-t.base]
		height := int(r.height)
		if hooks.OnBlock != nil {
			hooks.OnBlock(id, height)
		}
		ss.regularCount++
		m := ss.see(r.miner)
		ss.minerRewards[m].Static++
		if r.uncleStart == r.uncleEnd {
			continue
		}
		for _, u := range t.uncles(r) {
			d := height - t.HeightOf(u)
			if hooks.OnRef != nil {
				hooks.OnRef(UncleRef{Uncle: u, Nephew: id, Distance: d})
			}
			if !ss.schedule.Referenceable(d) {
				continue
			}
			ss.uncleCount++
			nv := ss.schedule.Nephew(d)
			ss.minerRewards[m].Nephew += nv
			ss.mintedNephew += nv
			uv := ss.schedule.Uncle(d)
			um := ss.see(int32(t.MinerOf(u)))
			ss.minerRewards[um].Uncle += uv
			ss.mintedUncle += uv
		}
	}
	ss.tip = to
	ss.height = t.HeightOf(to)
	return nil
}
