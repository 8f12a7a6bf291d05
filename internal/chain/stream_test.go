package chain

import (
	"errors"
	"testing"

	"github.com/ethselfish/ethselfish/internal/rewards"
)

// buildUncledChain grows a chain of the given height where every third
// height forks (the stale sibling is referenced two blocks later), giving
// settlement a steady supply of uncles at distance 2.
func buildUncledChain(t *testing.T, tree *Tree, height int) (tip BlockID) {
	t.Helper()
	tip = tree.Genesis()
	var pendingUncle BlockID = NoBlock
	for h := 1; h <= height; h++ {
		var uncles []BlockID
		if pendingUncle != NoBlock && h%3 == 2 {
			uncles = []BlockID{pendingUncle}
			pendingUncle = NoBlock
		}
		next := mustExtend(t, tree, tip, minerHonest, uncles...)
		if h%3 == 0 {
			pendingUncle = mustExtend(t, tree, tip, minerPool)
		}
		tip = next
	}
	return tip
}

// TestStreamSettlerMatchesSettle pins the settler's core promise: advancing
// in arbitrary strides accumulates tallies bit-identical to the one-shot
// descending walk over the same chain.
func TestStreamSettlerMatchesSettle(t *testing.T) {
	sched := rewards.Ethereum()
	tree := NewTree(Config{}, minerGenesis)
	tip := buildUncledChain(t, tree, 60)

	want, err := tree.Settle(tip, sched)
	if err != nil {
		t.Fatal(err)
	}

	ss := NewStreamSettler(sched)
	var blocks, refs int
	hooks := SettleHooks{
		OnBlock: func(BlockID, int) { blocks++ },
		OnRef:   func(UncleRef) { refs++ },
	}
	// Uneven strides cover single-step, batched, and no-op advances.
	for _, h := range []int{1, 2, 10, 11, 37, 37, 60} {
		if err := ss.Advance(tree, tree.AncestorAt(tip, h), hooks); err != nil {
			t.Fatalf("advance to height %d: %v", h, err)
		}
	}

	if ss.SettledHeight() != 60 {
		t.Fatalf("settled to height %d, want 60", ss.SettledHeight())
	}
	if ss.RegularCount() != want.RegularCount || ss.UncleCount() != want.UncleCount {
		t.Errorf("counts regular=%d uncles=%d, one-shot regular=%d uncles=%d",
			ss.RegularCount(), ss.UncleCount(), want.RegularCount, want.UncleCount)
	}
	if blocks != want.RegularCount || refs != len(want.Refs) {
		t.Errorf("hooks saw %d blocks, %d refs; one-shot settled %d blocks, %d refs",
			blocks, refs, want.RegularCount, len(want.Refs))
	}
	if len(ss.MinerRewards()) != len(want.MinerRewards) {
		t.Fatalf("miner tallies cover %d IDs, one-shot %d", len(ss.MinerRewards()), len(want.MinerRewards))
	}
	for id, got := range ss.MinerRewards() {
		if got != want.MinerRewards[id] {
			t.Errorf("miner %d: streaming %+v, one-shot %+v", id, got, want.MinerRewards[id])
		}
		if ss.MinerSeen()[id] != want.MinerSeen[id] {
			t.Errorf("miner %d: seen=%v, one-shot %v", id, ss.MinerSeen()[id], want.MinerSeen[id])
		}
	}
}

// TestStreamSettlerRejectsNonDescendant pins the descent precondition: a
// target off the settled tip's chain (or behind it) errors without
// corrupting the settler.
func TestStreamSettlerRejectsNonDescendant(t *testing.T) {
	tree, a1, a2, b1 := fork(t)
	ss := NewStreamSettler(rewards.Ethereum())
	if err := ss.Advance(tree, a2, SettleHooks{}); err != nil {
		t.Fatal(err)
	}
	if err := ss.Advance(tree, b1, SettleHooks{}); err == nil {
		t.Error("advance to a sibling branch succeeded")
	}
	if err := ss.Advance(tree, a1, SettleHooks{}); err == nil {
		t.Error("advance backwards succeeded")
	}
	if ss.SettledHeight() != 2 || ss.RegularCount() != 2 {
		t.Errorf("failed advances disturbed the settler: height %d, regular %d", ss.SettledHeight(), ss.RegularCount())
	}
	// The settled tip is still a2: advancing to it is the no-op case.
	settled := 0
	if err := ss.Advance(tree, a2, SettleHooks{OnBlock: func(BlockID, int) { settled++ }}); err != nil || settled != 0 {
		t.Errorf("advance to the settled tip: err %v, settled %d blocks, want a no-op", err, settled)
	}
}

// TestCompactBelowBoundaryAtUnclesParent pins the eviction edge case the
// simulator's sweep relies on: compacting right at an open uncle
// candidate's parent keeps the candidate and its parent resident and the
// candidate referenceable, while the evicted grandparent stays visible only
// as a dangling parent ID.
func TestCompactBelowBoundaryAtUnclesParent(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	c1 := mustExtend(t, tree, tree.Genesis(), minerHonest) // height 1
	c2 := mustExtend(t, tree, c1, minerHonest)             // height 2: the candidate's parent
	c3 := mustExtend(t, tree, c2, minerHonest)             // height 3
	cand := mustExtend(t, tree, c2, minerPool)             // height 3: open fork child
	c4 := mustExtend(t, tree, c3, minerHonest)             // height 4

	// Evict heights 0..1; the boundary lands exactly at the candidate's
	// parent c2.
	if got := tree.CompactBelow(2); got != 2 {
		t.Fatalf("evicted %d records, want 2", got)
	}
	if tree.Base() != c2 || tree.Len() != 6 {
		t.Fatalf("base %d len %d, want %d 6", tree.Base(), tree.Len(), c2)
	}
	if tree.Contains(c1) || !tree.Contains(c2) || !tree.Contains(cand) {
		t.Fatal("residency flips on the wrong side of the boundary")
	}
	// The resident boundary record still names its evicted parent by ID.
	if tree.ParentOf(c2) != c1 || tree.HeightOf(c2) != 2 {
		t.Errorf("boundary record: parent %d height %d, want %d 2", tree.ParentOf(c2), tree.HeightOf(c2), c1)
	}
	// The candidate's sibling links survive the copy-down.
	if tree.FirstChildOf(c2) != c3 || tree.NextSiblingOf(c3) != cand || tree.ParentOf(cand) != c2 {
		t.Error("fork-child structure lost across compaction")
	}
	// The candidate is still referenceable: a block on the main chain can
	// take it as an uncle at distance 2, and the reference lands in the
	// rebased arena.
	c5, err := tree.ExtendAt(c4, minerHonest, []BlockID{cand}, 0)
	if err != nil {
		t.Fatalf("referencing a resident candidate after compaction: %v", err)
	}
	if got := tree.UnclesOf(c5); len(got) != 1 || got[0] != cand {
		t.Errorf("UnclesOf = %v, want [%d]", got, cand)
	}
	// An evicted block is gone for good: not containable, not extendable.
	if _, err := tree.ExtendAt(c1, minerHonest, nil, 0); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("extending an evicted block: err = %v, want ErrUnknownBlock", err)
	}
}

// TestCompactBelowStopsAtFirstTallRecord pins the prefix semantics: the
// scan stops at the first record at or above the bound, so a later record
// below the bound (a stale fork block minted late) survives.
func TestCompactBelowStopsAtFirstTallRecord(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	c1 := mustExtend(t, tree, tree.Genesis(), minerHonest) // height 1
	c2 := mustExtend(t, tree, c1, minerHonest)             // height 2
	late := mustExtend(t, tree, c1, minerPool)             // height 2, but minted after c2
	c3 := mustExtend(t, tree, c2, minerHonest)             // height 3

	if got := tree.CompactBelow(2); got != 2 {
		t.Fatalf("evicted %d records, want 2 (genesis and c1)", got)
	}
	if !tree.Contains(late) || !tree.Contains(c2) || !tree.Contains(c3) {
		t.Fatal("prefix eviction removed a record past the first tall one")
	}
	// A second compaction at the same bound is a no-op: the prefix already
	// starts at or above it.
	if got := tree.CompactBelow(2); got != 0 {
		t.Fatalf("re-compacting evicted %d records, want 0", got)
	}
}

// TestResetAfterCompaction pins Runner reuse: Reset on a partially
// compacted tree restores the pristine genesis state, and the reused tree
// grows and settles normally from ID zero.
func TestResetAfterCompaction(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	tip := buildUncledChain(t, tree, 30)
	if tree.CompactBelow(20) == 0 {
		t.Fatal("compaction evicted nothing")
	}
	_ = tip

	tree.Reset(Config{}, minerGenesis)
	if tree.Len() != 1 || tree.Base() != 0 || tree.TotalUncleRefs() != 0 {
		t.Fatalf("reset left len=%d base=%d refs=%d", tree.Len(), tree.Base(), tree.TotalUncleRefs())
	}
	tip = buildUncledChain(t, tree, 15)
	settlement, err := tree.Settle(tip, rewards.Ethereum())
	if err != nil {
		t.Fatal(err)
	}
	if settlement.RegularCount != 15 {
		t.Fatalf("reused tree settled %d regular blocks, want 15", settlement.RegularCount)
	}
}
