package chain

import "fmt"

// Config controls protocol limits enforced by a Tree.
type Config struct {
	// MaxUncleDepth is the largest allowed distance (in heights) between
	// a nephew and the uncles it references. Ethereum uses 6. Zero or
	// negative means unlimited, matching the paper's abstract model.
	MaxUncleDepth int

	// MaxUnclesPerBlock bounds the uncle references in one block.
	// Ethereum uses 2. Zero or negative means unlimited (the paper's
	// honest miners reference "as many as possible").
	MaxUnclesPerBlock int

	// BlocksHint pre-sizes the tree's internal storage for roughly this
	// many blocks (genesis excluded), so long simulations never pay for
	// incremental growth reallocations. Zero or negative means no
	// pre-allocation. The hint is advisory: the tree grows past it
	// normally.
	BlocksHint int
}

// rec is the tree's internal per-block record. It is deliberately compact
// and pointer-free: 20 bytes per block, so appends copy less, chain walks
// stay cache-dense, and the garbage collector never scans block storage. The
// ID is implicit (a record's ID is its index plus the eviction base); uncle
// references live in the shared arena, addressed by [uncleStart, uncleEnd),
// and are read through UnclesOf. Timestamps and jump pointers live in their
// own parallel slices (times, jumps), not here: the uncle-validation and
// settlement walks read rec alone, and keeping it at 20 bytes keeps those
// walks cache-dense.
type rec struct {
	parent     int32
	height     int32
	miner      int32
	uncleStart int32
	uncleEnd   int32
}

// links holds the per-block intrusive child list, in the same compact int32
// form as rec.
type links struct {
	// firstChild and lastChild bound the block's child list; nextSibling
	// threads it in creation order. This intrusive layout removes the
	// per-block slice allocation a [][]BlockID layout pays the first time
	// any block gains a child — the simulator's dominant steady-state
	// allocation.
	firstChild  int32
	lastChild   int32
	nextSibling int32
}

// jump is a block's skew-binary jump pointer (Myers, "An applicative
// random-access stack"; Bitcoin Core's CBlockIndex::pskip plays the same
// role): to is a strict ancestor n heights down, so the target's height is
// known without reading its record. Built in O(1) per block from the
// parent's jump, the pointers let AncestorAt and CommonAncestor cross a race
// of depth d in O(log d) hops instead of d parent steps.
type jump struct {
	to int32
	n  int32
}

// jumpFor returns the jump pointer of a new child of parent. If the
// parent's jump p and its target's jump have equal lengths, the child spans
// both plus its own parent edge; otherwise it jumps to the parent. A parent
// whose target has been evicted falls back to the parent edge: the rule
// would read the evicted record, and any resulting jump would land below
// every block a query may reach anyway.
func (t *Tree) jumpFor(parent int32) jump {
	p := t.jumps[parent-t.base]
	to, n := parent, int32(1)
	if p.to >= t.base {
		// A plain select: the merge compiles to conditional moves.
		if q := t.jumps[p.to-t.base]; q.n == p.n {
			to, n = q.to, 2*p.n+1
		}
	}
	return jump{to: to, n: n}
}

// noBlock32 is NoBlock in the internal int32 representation.
const noBlock32 = int32(NoBlock)

// noLinks is the link record of a freshly added block.
var noLinks = links{
	firstChild:  noBlock32,
	lastChild:   noBlock32,
	nextSibling: noBlock32,
}

// Tree is an append-only block tree rooted at a genesis block. It is not
// safe for concurrent use.
//
// Long-horizon runs stream-settle and evict decided history through
// CompactBelow: record storage is then a window over IDs [Base(), Len()),
// kept in the same flat arrays by a batched copy-down, while BlockIDs stay
// stable (every ID ever issued keeps naming the same block). All structural
// indexes of resident blocks point forward (children and siblings always
// have larger IDs than the block itself), so eviction
// can only leave two kinds of dangling backward edges: a resident block's
// parent ID and a resident nephew's uncle IDs may name evicted blocks.
// Callers that compact guarantee no accessor dereferences below Base();
// dangling IDs are only ever compared. Jump pointers may dangle the same
// way: the ancestor queries follow a jump only to a block at or above
// their answer, so a resident answer never leads them below Base().
type Tree struct {
	cfg   Config
	recs  []rec
	links []links

	// jumps holds each block's skew-binary jump pointer, parallel to recs
	// (genesis jumps to itself with length zero). A separate SoA slice for
	// the same reason as times: only the ancestor queries read it.
	jumps []jump

	// base is the ID of recs[0]: zero until CompactBelow evicts a decided
	// prefix, after which record index = ID - base. It only ever grows.
	base int32

	// arenaOff is the pre-eviction arena length: uncle ranges in recs are
	// stored as absolute positions, so arena index = position - arenaOff.
	arenaOff int32

	// times holds each block's timestamp, parallel to recs — but only
	// once a nonzero stamp has been recorded. A timeless run stamps every
	// block zero, so the slice stays empty and TimeOf answers zero without
	// storing anything: appending 8 unread bytes per block is a measurable
	// share of the block-event hot path. The first nonzero stamp
	// materializes the zero prefix, after which the slice tracks recs
	// one-to-one. The continuous-time engine stamps each block with the
	// simulation clock at its creation event, so timestamps are monotone
	// non-decreasing along every branch. Kept as a separate SoA slice so
	// the 20-byte rec stays cache-dense for chain walks that never touch
	// time.
	times []float64

	// uncleArena backs every block's uncle list. ExtendAt appends the
	// validated references here and hands out capacity-clamped
	// subslices, so uncle storage amortizes to zero allocations instead
	// of one copy per referencing block.
	uncleArena []BlockID
}

// NewTree returns a tree containing only the genesis block, which is
// attributed to the given miner (conventionally the neutral reserved ID 0;
// it must be non-negative like every MinerID).
func NewTree(cfg Config, genesisMiner MinerID) *Tree {
	t := &Tree{}
	t.Reset(cfg, genesisMiner)
	return t
}

// Reset re-initializes the tree in place to the state NewTree would return,
// retaining the storage of previous runs. Batch runners reset one tree per
// worker instead of re-allocating (and zeroing) ~100k-block storage for
// every run.
func (t *Tree) Reset(cfg Config, genesisMiner MinerID) {
	t.cfg = cfg
	if hint := cfg.BlocksHint; hint > 0 && cap(t.recs) < hint+1 {
		n := hint + 1 // plus genesis
		t.recs = make([]rec, 0, n)
		t.links = make([]links, 0, n)
		t.jumps = make([]jump, 0, n)
		t.times = make([]float64, 0, n)
	} else {
		t.recs = t.recs[:0]
		t.links = t.links[:0]
		t.jumps = t.jumps[:0]
		t.times = t.times[:0]
	}
	t.uncleArena = t.uncleArena[:0]
	t.base = 0
	t.arenaOff = 0
	t.recs = append(t.recs, rec{parent: noBlock32, miner: int32(genesisMiner)})
	t.links = append(t.links, noLinks)
	t.jumps = append(t.jumps, jump{})
}

// Genesis returns the genesis block's ID (always 0, whether or not the
// genesis record itself has been evicted).
func (t *Tree) Genesis() BlockID { return 0 }

// Len returns the number of blocks ever added, including genesis and any
// records CompactBelow has evicted: IDs are issued contiguously, so Len is
// also the next ID.
func (t *Tree) Len() int { return int(t.base) + len(t.recs) }

// Base returns the lowest resident block ID. It is zero (genesis) until
// CompactBelow evicts a prefix; accessors must not be asked about blocks
// below it.
func (t *Tree) Base() BlockID { return BlockID(t.base) }

// CompactBelow evicts the longest prefix of records whose height is below
// minHeight, compacting the backing arrays in place (one copy-down of the
// resident suffix, so freed capacity is reused by future appends), and
// returns the number of records evicted. The scan stops at the first record
// at or above minHeight, which makes the contract monotone in height: after
// the call, every block below Base() has height < minHeight, and every block
// at height >= minHeight is resident.
//
// The caller owns the safety argument: minHeight must be low enough that no
// future accessor dereferences an evicted block. The streaming simulator
// passes settledHeight - uncleWindow, under which evicted blocks are
// topologically decided, already settled, and too deep ever to be referenced
// (or have their record read) again.
func (t *Tree) CompactBelow(minHeight int) int {
	n := 0
	for n < len(t.recs) && int(t.recs[n].height) < minHeight {
		n++
	}
	if n == 0 {
		return 0
	}
	// The evicted records own exactly the arena prefix before the first
	// survivor's range (uncleStart is monotone across records in creation
	// order).
	cutArena := t.arenaOff + int32(len(t.uncleArena))
	if n < len(t.recs) {
		cutArena = t.recs[n].uncleStart
	}
	k := copy(t.recs, t.recs[n:])
	t.recs = t.recs[:k]
	kl := copy(t.links, t.links[n:])
	t.links = t.links[:kl]
	kj := copy(t.jumps, t.jumps[n:])
	t.jumps = t.jumps[:kj]
	if len(t.times) > 0 {
		kt := copy(t.times, t.times[n:])
		t.times = t.times[:kt]
	}
	a := int(cutArena - t.arenaOff)
	m := copy(t.uncleArena, t.uncleArena[a:])
	t.uncleArena = t.uncleArena[:m]
	t.arenaOff = cutArena
	t.base += int32(n)
	return n
}

// uncles returns the arena-backed uncle list of a record (nil when empty).
func (t *Tree) uncles(r rec) []BlockID {
	if r.uncleStart == r.uncleEnd {
		return nil
	}
	s, e := r.uncleStart-t.arenaOff, r.uncleEnd-t.arenaOff
	return t.uncleArena[s:e:e]
}

// ParentOf returns the block's parent (NoBlock for genesis).
func (t *Tree) ParentOf(id BlockID) BlockID { return BlockID(t.recs[int32(id)-t.base].parent) }

// HeightOf returns the block's height without materializing the record.
func (t *Tree) HeightOf(id BlockID) int { return int(t.recs[int32(id)-t.base].height) }

// MinerOf returns the block's producer.
func (t *Tree) MinerOf(id BlockID) MinerID { return MinerID(t.recs[int32(id)-t.base].miner) }

// UnclesOf returns the block's uncle references. The slice is owned by the
// tree and must not be modified.
func (t *Tree) UnclesOf(id BlockID) []BlockID { return t.uncles(t.recs[int32(id)-t.base]) }

// TimeOf returns the block's timestamp (zero for every block of a timeless
// run, and for genesis). Blocks beyond the stored stamps — all of them, in
// a run that never recorded a nonzero stamp — are zero by representation.
func (t *Tree) TimeOf(id BlockID) float64 {
	if ts := t.times; int(int32(id)-t.base) < len(ts) {
		return ts[int32(id)-t.base]
	}
	return 0
}

// BlockInfo returns the parent, height, and uncle references of a block in
// one record load — the chain-walking accessor for hot paths. It reads the
// record's fields in place: copying the 20-byte record out first compiles to
// overlapping stack stores that the field reads then stall on.
func (t *Tree) BlockInfo(id BlockID) (parent BlockID, height int, uncles []BlockID) {
	r := &t.recs[int32(id)-t.base]
	return BlockID(r.parent), int(r.height), t.uncles(*r)
}

// FirstChildOf returns the block's first child in creation order, or
// NoBlock.
func (t *Tree) FirstChildOf(id BlockID) BlockID {
	return BlockID(t.links[int32(id)-t.base].firstChild)
}

// NextSiblingOf returns the next child of id's parent in creation order, or
// NoBlock.
func (t *Tree) NextSiblingOf(id BlockID) BlockID {
	return BlockID(t.links[int32(id)-t.base].nextSibling)
}

// Contains reports whether id names a resident block of this tree (evicted
// IDs once named blocks, but their records are gone).
func (t *Tree) Contains(id BlockID) bool {
	return int32(id) >= t.base && int(id) < t.Len()
}

// TotalUncleRefs returns the number of uncle references recorded across all
// blocks ever added (on every branch, including evicted ones). Settlement
// uses it to presize its realized-reference list.
func (t *Tree) TotalUncleRefs() int { return int(t.arenaOff) + len(t.uncleArena) }

// ExtendAt appends a new block on the given parent, referencing the given
// uncles, and returns its ID. The uncle list is validated against the
// protocol rules; the slice is copied, so the caller may reuse it. The miner
// ID must be non-negative (IDs index dense settlement tallies). The block is
// stamped at: the continuous-time simulator passes its creation event's
// clock, timeless callers zero. The tree records the value without
// interpreting it (monotonicity along branches is the caller's invariant; the
// simulator's globally increasing clock supplies it for free).
func (t *Tree) ExtendAt(parent BlockID, miner MinerID, uncles []BlockID, at float64) (BlockID, error) {
	if !t.Contains(parent) {
		return NoBlock, fmt.Errorf("parent %d: %w", parent, ErrUnknownBlock)
	}
	if miner < 0 {
		return NoBlock, fmt.Errorf("miner %d: %w", miner, ErrBadMinerID)
	}
	if t.cfg.MaxUnclesPerBlock > 0 && len(uncles) > t.cfg.MaxUnclesPerBlock {
		return NoBlock, fmt.Errorf("%d uncles (limit %d): %w",
			len(uncles), t.cfg.MaxUnclesPerBlock, ErrTooManyUncles)
	}
	newHeight := t.recs[int32(parent)-t.base].height + 1
	for i, u := range uncles {
		for _, prev := range uncles[:i] {
			if prev == u {
				return NoBlock, fmt.Errorf("uncle %d: %w", u, ErrDuplicateUncle)
			}
		}
		if err := t.validateUncle(parent, int(newHeight), u); err != nil {
			return NoBlock, err
		}
	}

	start := t.arenaOff + int32(len(t.uncleArena))
	if len(uncles) > 0 {
		t.uncleArena = append(t.uncleArena, uncles...)
	}
	id := BlockID(t.Len())
	j := t.jumpFor(int32(parent))
	t.recs = append(t.recs, rec{
		parent:     int32(parent),
		height:     newHeight,
		miner:      int32(miner),
		uncleStart: start,
		uncleEnd:   t.arenaOff + int32(len(t.uncleArena)),
	})
	t.links = append(t.links, noLinks)
	t.jumps = append(t.jumps, j)
	if at != 0 || len(t.times) != 0 {
		t.stamp(at)
	}
	id32 := int32(id)
	lp := &t.links[int32(parent)-t.base]
	if lp.firstChild == noBlock32 {
		lp.firstChild = id32
	} else {
		t.links[lp.lastChild-t.base].nextSibling = id32
	}
	lp.lastChild = id32
	return id, nil
}

// stamp records the newest block's timestamp, materializing the zero
// prefix for any blocks created before timestamps became nonzero. Out of
// the ExtendAt hot path so the timeless common case stays a single branch.
func (t *Tree) stamp(at float64) {
	for len(t.times) < len(t.recs)-1 {
		t.times = append(t.times, 0)
	}
	t.times = append(t.times, at)
}

// AppendLeaf appends a block on a childless parent, referencing no uncles —
// the race-origin fast path's append, where the public tip is known to be
// childless and the honest block deterministically extends it. It performs
// exactly the mutations ExtendAt(parent, miner, nil, at) would, skipping the
// uncle validation and fork bookkeeping a childless parent makes vacuous.
// ok=false (and no mutation) when the parent is unknown, the miner invalid,
// or the parent already has a child; the caller falls back to ExtendAt,
// which reports the precise error.
func (t *Tree) AppendLeaf(parent BlockID, miner MinerID, at float64) (id BlockID, ok bool) {
	if !t.Contains(parent) || miner < 0 || t.links[int32(parent)-t.base].firstChild != noBlock32 {
		return NoBlock, false
	}
	ue := t.arenaOff + int32(len(t.uncleArena))
	id = BlockID(t.Len())
	j := t.jumpFor(int32(parent))
	t.recs = append(t.recs, rec{
		parent:     int32(parent),
		height:     t.recs[int32(parent)-t.base].height + 1,
		miner:      int32(miner),
		uncleStart: ue,
		uncleEnd:   ue,
	})
	t.links = append(t.links, noLinks)
	t.jumps = append(t.jumps, j)
	if at != 0 || len(t.times) != 0 {
		t.stamp(at)
	}
	// Re-index after the appends: they may have moved the backing array.
	lp := &t.links[int32(parent)-t.base]
	lp.firstChild, lp.lastChild = int32(id), int32(id)
	return id, true
}

// validateUncle checks the Ethereum uncle rules for referencing uncle u from
// a new block whose parent is parent and whose height is newHeight:
// the uncle must exist, must not be an ancestor of the new block, its parent
// must be an ancestor of the new block (i.e. it is a "direct child of the
// main chain" from the new block's point of view), it must be within the
// depth limit, and it must not already be referenced on this chain.
func (t *Tree) validateUncle(parent BlockID, newHeight int, u BlockID) error {
	if !t.Contains(u) {
		return fmt.Errorf("uncle %d: %w", u, ErrUnknownBlock)
	}
	uncleHeight := int(t.recs[int32(u)-t.base].height)
	distance := newHeight - uncleHeight
	if distance < 1 {
		// The uncle is at or above the new block's height; it cannot
		// attach below the new block.
		return fmt.Errorf("uncle %d at height %d vs new height %d: %w",
			u, uncleHeight, newHeight, ErrUncleNotAttached)
	}
	if t.cfg.MaxUncleDepth > 0 && distance > t.cfg.MaxUncleDepth {
		return fmt.Errorf("uncle %d at distance %d (limit %d): %w",
			u, distance, t.cfg.MaxUncleDepth, ErrUncleTooDeep)
	}

	// Walk up from parent to the uncle's height, checking attachment,
	// ancestry, and prior references along the way.
	cursor := int32(parent)
	for t.recs[cursor-t.base].height > int32(uncleHeight) {
		for _, ref := range t.uncles(t.recs[cursor-t.base]) {
			if ref == u {
				return fmt.Errorf("uncle %d referenced by ancestor %d: %w",
					u, cursor, ErrUncleAlreadyReferenced)
			}
		}
		cursor = t.recs[cursor-t.base].parent
	}
	if BlockID(cursor) == u {
		return fmt.Errorf("uncle %d: %w", u, ErrUncleIsAncestor)
	}
	// cursor is the new block's ancestor at the uncle's height. The uncle
	// attaches iff its parent is an ancestor of the new block; since
	// uncle.Parent sits one height below, the only ancestor it can equal
	// is cursor's parent, so the attachment check is exactly that
	// equality.
	if t.recs[int32(u)-t.base].parent != t.recs[cursor-t.base].parent {
		return fmt.Errorf("uncle %d: %w", u, ErrUncleNotAttached)
	}
	return nil
}

// IsAncestor reports whether a is a strict ancestor of b.
func (t *Tree) IsAncestor(a, b BlockID) bool {
	ai, bi := t.mustIndex(a), t.mustIndex(b)
	if t.recs[ai].height >= t.recs[bi].height {
		return false
	}
	cursor := int32(b)
	for t.recs[cursor-t.base].height > t.recs[ai].height {
		cursor = t.recs[cursor-t.base].parent
	}
	return BlockID(cursor) == a
}

// AncestorAt returns b's ancestor at the given height (or b itself when
// height equals b's height). It panics if height is negative or exceeds b's
// height. The walk follows jump pointers, O(log(b's height - height)) hops.
func (t *Tree) AncestorAt(b BlockID, height int) BlockID {
	bi := t.mustIndex(b)
	if height < 0 || height > int(t.recs[bi].height) {
		panic(fmt.Sprintf("chain: AncestorAt height %d out of range for block at height %d",
			height, t.recs[bi].height))
	}
	return BlockID(t.ancestorAt(int32(b), t.recs[bi].height, int32(height)))
}

// ancestorAt returns the ancestor at height target of block b at height h
// (target <= h): it takes b's jump when that lands at or above target and
// steps to the parent otherwise. Every block it reads lies between b and
// the answer, so a resident answer keeps the whole walk resident.
func (t *Tree) ancestorAt(b, h, target int32) int32 {
	for h > target {
		if j := t.jumps[b-t.base]; h-j.n >= target {
			b, h = j.to, h-j.n
		} else {
			b, h = t.recs[b-t.base].parent, h-1
		}
	}
	return b
}

// CommonAncestor returns the deepest common ancestor of a and b. After
// lifting the deeper block to the other's height, both climb in lockstep:
// two jumps of equal length whose targets still differ both land above the
// answer, so they are taken together; otherwise both step to their parents.
// Jump lengths depend only on height (up to the eviction fallback), so the
// climb is O(log depth) hops.
func (t *Tree) CommonAncestor(a, b BlockID) BlockID {
	ha := t.recs[t.mustIndex(a)].height
	hb := t.recs[t.mustIndex(b)].height
	x, y := int32(a), int32(b)
	if ha > hb {
		x = t.ancestorAt(x, ha, hb)
	} else if hb > ha {
		y = t.ancestorAt(y, hb, ha)
	}
	for x != y {
		jx, jy := t.jumps[x-t.base], t.jumps[y-t.base]
		if jx.to != jy.to && jx.n == jy.n {
			x, y = jx.to, jy.to
		} else {
			x, y = t.recs[x-t.base].parent, t.recs[y-t.base].parent
		}
	}
	return BlockID(x)
}

// PathTo returns the chain from genesis to tip, inclusive. It requires the
// full history: a compacted tree panics once the walk crosses Base().
func (t *Tree) PathTo(tip BlockID) []BlockID {
	ti := t.mustIndex(tip)
	path := make([]BlockID, t.recs[ti].height+1)
	cursor := tip
	for i := len(path) - 1; i >= 0; i-- {
		path[i] = cursor
		cursor = BlockID(t.recs[t.mustIndex(cursor)].parent)
	}
	return path
}

func (t *Tree) mustIndex(id BlockID) int {
	if !t.Contains(id) {
		panic(fmt.Sprintf("chain: invalid block ID %d (tree holds %d..%d)", id, t.base, t.Len()-1))
	}
	return int(int32(id) - t.base)
}
