package chain

import (
	"errors"
	"slices"
	"testing"
)

const (
	minerGenesis MinerID = 0
	minerHonest  MinerID = 1
	minerPool    MinerID = 2
)

func mustExtend(t *testing.T, tree *Tree, parent BlockID, miner MinerID, uncles ...BlockID) BlockID {
	t.Helper()
	id, err := tree.ExtendAt(parent, miner, uncles, 0)
	if err != nil {
		t.Fatalf("ExtendAt(parent=%d): %v", parent, err)
	}
	return id
}

// children lists a block's direct children in creation order through the
// intrusive child links.
func children(tree *Tree, id BlockID) []BlockID {
	var out []BlockID
	for kid := tree.FirstChildOf(id); kid != NoBlock; kid = tree.NextSiblingOf(kid) {
		out = append(out, kid)
	}
	return out
}

// leaves lists the resident blocks without children, in creation order.
func leaves(tree *Tree) []BlockID {
	var out []BlockID
	for id := tree.Base(); int(id) < tree.Len(); id++ {
		if tree.FirstChildOf(id) == NoBlock {
			out = append(out, id)
		}
	}
	return out
}

func TestNewTreeGenesis(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	if tree.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tree.Len())
	}
	g := tree.Genesis()
	if g != 0 || tree.HeightOf(g) != 0 || tree.ParentOf(g) != NoBlock || tree.MinerOf(g) != minerGenesis {
		t.Errorf("genesis %d: height %d parent %d miner %d", g, tree.HeightOf(g), tree.ParentOf(g), tree.MinerOf(g))
	}
	if got := tree.LongestTips(); len(got) != 1 || got[0] != g {
		t.Errorf("LongestTips = %v, want [genesis]", got)
	}
}

func TestExtendLinearChain(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	prev := tree.Genesis()
	for h := 1; h <= 5; h++ {
		prev = mustExtend(t, tree, prev, minerHonest)
		if got := tree.HeightOf(prev); got != h {
			t.Fatalf("height = %d, want %d", got, h)
		}
	}
	path := tree.PathTo(prev)
	if len(path) != 6 {
		t.Fatalf("path length %d, want 6", len(path))
	}
	for i, id := range path {
		if tree.HeightOf(id) != i {
			t.Errorf("path[%d] has height %d", i, tree.HeightOf(id))
		}
	}
}

func TestExtendUnknownParent(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	if _, err := tree.ExtendAt(99, minerHonest, nil, 0); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("err = %v, want ErrUnknownBlock", err)
	}
	if _, err := tree.ExtendAt(NoBlock, minerHonest, nil, 0); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("err = %v, want ErrUnknownBlock", err)
	}
}

// fork builds genesis -> a1 -> a2 and a sibling b1 of a2 (child of a1).
func fork(t *testing.T) (tree *Tree, a1, a2, b1 BlockID) {
	t.Helper()
	tree = NewTree(Config{}, minerGenesis)
	a1 = mustExtend(t, tree, tree.Genesis(), minerPool)
	a2 = mustExtend(t, tree, a1, minerPool)
	b1 = mustExtend(t, tree, a1, minerHonest)
	return tree, a1, a2, b1
}

func TestUncleReferenceValid(t *testing.T) {
	tree, _, a2, b1 := fork(t)
	// a3 on top of a2 references b1 (a sibling of a2, distance 2).
	a3, err := tree.ExtendAt(a2, minerPool, []BlockID{b1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.UnclesOf(a3); len(got) != 1 || got[0] != b1 {
		t.Errorf("Uncles = %v, want [b1]", got)
	}
}

func TestUncleCannotBeAncestor(t *testing.T) {
	tree, a1, a2, _ := fork(t)
	if _, err := tree.ExtendAt(a2, minerPool, []BlockID{a1}, 0); !errors.Is(err, ErrUncleIsAncestor) {
		t.Errorf("err = %v, want ErrUncleIsAncestor", err)
	}
	// The direct parent is also an ancestor (distance 1, but on-chain).
	if _, err := tree.ExtendAt(a2, minerPool, []BlockID{a2}, 0); !errors.Is(err, ErrUncleIsAncestor) {
		t.Errorf("parent-reference err = %v, want ErrUncleIsAncestor", err)
	}
}

func TestUncleMustAttachToChain(t *testing.T) {
	// Build two separate forks from genesis:
	//   genesis -> a1 -> a2
	//   genesis -> c1 -> c2
	// c2 is NOT a valid uncle for a3 (its parent c1 is not an ancestor
	// of a3), but c1 is (its parent genesis is).
	tree := NewTree(Config{}, minerGenesis)
	a1 := mustExtend(t, tree, tree.Genesis(), minerPool)
	a2 := mustExtend(t, tree, a1, minerPool)
	c1 := mustExtend(t, tree, tree.Genesis(), minerHonest)
	c2 := mustExtend(t, tree, c1, minerHonest)

	if _, err := tree.ExtendAt(a2, minerPool, []BlockID{c2}, 0); !errors.Is(err, ErrUncleNotAttached) {
		t.Errorf("c2 err = %v, want ErrUncleNotAttached", err)
	}
	if _, err := tree.ExtendAt(a2, minerPool, []BlockID{c1}, 0); err != nil {
		t.Errorf("c1 should be a valid uncle: %v", err)
	}
}

func TestUncleDepthLimit(t *testing.T) {
	tree := NewTree(Config{MaxUncleDepth: 6}, minerGenesis)
	// Sibling fork at height 1.
	u := mustExtend(t, tree, tree.Genesis(), minerHonest)
	prev := mustExtend(t, tree, tree.Genesis(), minerPool)
	// Extend main chain to height 6; referencing u from height 6 has
	// distance 5 — fine. From height 7 the distance is 7-1+1... the
	// distance from a block at height h is h - 1.
	for h := 2; h <= 6; h++ {
		prev = mustExtend(t, tree, prev, minerPool)
	}
	// prev is at height 6; a child is at height 7, distance 7-1 = 6: ok.
	child, err := tree.ExtendAt(prev, minerPool, []BlockID{u}, 0)
	if err != nil {
		t.Fatalf("distance-6 reference should be valid: %v", err)
	}
	// Rebuild the scenario one level deeper on a fresh branch.
	tree2 := NewTree(Config{MaxUncleDepth: 6}, minerGenesis)
	u2 := mustExtend(t, tree2, tree2.Genesis(), minerHonest)
	prev2 := mustExtend(t, tree2, tree2.Genesis(), minerPool)
	for h := 2; h <= 7; h++ {
		prev2 = mustExtend(t, tree2, prev2, minerPool)
	}
	// prev2 at height 7; child at height 8, distance 7: too deep.
	if _, err := tree2.ExtendAt(prev2, minerPool, []BlockID{u2}, 0); !errors.Is(err, ErrUncleTooDeep) {
		t.Errorf("err = %v, want ErrUncleTooDeep", err)
	}
	_ = child
}

func TestUncleDepthUnlimitedByDefault(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	u := mustExtend(t, tree, tree.Genesis(), minerHonest)
	prev := mustExtend(t, tree, tree.Genesis(), minerPool)
	for h := 2; h <= 30; h++ {
		prev = mustExtend(t, tree, prev, minerPool)
	}
	if _, err := tree.ExtendAt(prev, minerPool, []BlockID{u}, 0); err != nil {
		t.Errorf("unlimited depth tree rejected deep uncle: %v", err)
	}
}

func TestUncleDoubleReferenceRejected(t *testing.T) {
	tree, _, a2, b1 := fork(t)
	a3 := mustExtend(t, tree, a2, minerPool, b1)
	if _, err := tree.ExtendAt(a3, minerPool, []BlockID{b1}, 0); !errors.Is(err, ErrUncleAlreadyReferenced) {
		t.Errorf("err = %v, want ErrUncleAlreadyReferenced", err)
	}
}

func TestUncleReferenceOnCompetingChainAllowed(t *testing.T) {
	// A reference on chain A does not block a reference on chain B:
	// only ancestors of the new block matter.
	tree, a1, a2, b1 := fork(t)
	mustExtend(t, tree, a2, minerPool, b1) // chain A references b1
	// Chain B: b2 extends b1's sibling... build genesis->a1->c2->c3
	c2 := mustExtend(t, tree, a1, minerHonest)
	if _, err := tree.ExtendAt(c2, minerHonest, []BlockID{b1}, 0); err != nil {
		t.Errorf("cross-chain second reference should be allowed: %v", err)
	}
}

func TestDuplicateUncleInOneBlock(t *testing.T) {
	tree, _, a2, b1 := fork(t)
	if _, err := tree.ExtendAt(a2, minerPool, []BlockID{b1, b1}, 0); !errors.Is(err, ErrDuplicateUncle) {
		t.Errorf("err = %v, want ErrDuplicateUncle", err)
	}
}

func TestMaxUnclesPerBlock(t *testing.T) {
	tree := NewTree(Config{MaxUnclesPerBlock: 2}, minerGenesis)
	a1 := mustExtend(t, tree, tree.Genesis(), minerPool)
	u1 := mustExtend(t, tree, tree.Genesis(), minerHonest)
	u2 := mustExtend(t, tree, tree.Genesis(), minerHonest)
	u3 := mustExtend(t, tree, tree.Genesis(), minerHonest)
	if _, err := tree.ExtendAt(a1, minerPool, []BlockID{u1, u2, u3}, 0); !errors.Is(err, ErrTooManyUncles) {
		t.Errorf("err = %v, want ErrTooManyUncles", err)
	}
	if _, err := tree.ExtendAt(a1, minerPool, []BlockID{u1, u2}, 0); err != nil {
		t.Errorf("two uncles should be allowed: %v", err)
	}
}

func TestIsAncestor(t *testing.T) {
	tree, a1, a2, b1 := fork(t)
	g := tree.Genesis()
	tests := []struct {
		a, b BlockID
		want bool
	}{
		{g, a1, true},
		{g, a2, true},
		{g, b1, true},
		{a1, a2, true},
		{a1, b1, true},
		{a2, b1, false},
		{b1, a2, false},
		{a2, a2, false}, // strict
		{a2, g, false},
	}
	for _, tt := range tests {
		if got := tree.IsAncestor(tt.a, tt.b); got != tt.want {
			t.Errorf("IsAncestor(%d, %d) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAncestorAtAndCommonAncestor(t *testing.T) {
	tree, a1, a2, b1 := fork(t)
	if got := tree.AncestorAt(a2, 1); got != a1 {
		t.Errorf("AncestorAt(a2, 1) = %d, want %d", got, a1)
	}
	if got := tree.AncestorAt(a2, 2); got != a2 {
		t.Errorf("AncestorAt(a2, 2) = %d, want a2 itself", got)
	}
	if got := tree.CommonAncestor(a2, b1); got != a1 {
		t.Errorf("CommonAncestor(a2, b1) = %d, want %d", got, a1)
	}
	if got := tree.CommonAncestor(a2, a2); got != a2 {
		t.Errorf("CommonAncestor(a2, a2) = %d, want a2", got)
	}
	if got := tree.CommonAncestor(tree.Genesis(), b1); got != tree.Genesis() {
		t.Errorf("CommonAncestor(g, b1) = %d, want genesis", got)
	}
}

func TestAncestorAtPanicsOutOfRange(t *testing.T) {
	tree, _, a2, _ := fork(t)
	defer func() {
		if recover() == nil {
			t.Error("AncestorAt above block height should panic")
		}
	}()
	tree.AncestorAt(a2, 3)
}

func TestChildrenAndTips(t *testing.T) {
	tree, a1, a2, b1 := fork(t)
	if kids := children(tree, a1); len(kids) != 2 || kids[0] != a2 || kids[1] != b1 {
		t.Errorf("children(a1) = %v, want [a2 b1]", kids)
	}
	if kids := children(tree, a2); len(kids) != 0 {
		t.Errorf("children(a2) = %v, want none", kids)
	}
	if tips := leaves(tree); len(tips) != 2 || tips[0] != a2 || tips[1] != b1 {
		t.Errorf("leaves = %v, want [a2 b1]", tips)
	}
}

// TestBlockPanicsOnInvalidID: a block accessor that validates its ID
// (through mustIndex) panics on one the tree never issued, which indicates
// a programming error.
func TestBlockPanicsOnInvalidID(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	defer func() {
		if recover() == nil {
			t.Error("AncestorAt(99, 0) should panic")
		}
	}()
	tree.AncestorAt(99, 0)
}

func TestExtendRejectsNegativeMinerID(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	if _, err := tree.ExtendAt(tree.Genesis(), -1, nil, 0); !errors.Is(err, ErrBadMinerID) {
		t.Errorf("negative miner: err = %v, want ErrBadMinerID", err)
	}
}

func TestResetRestoresGenesisState(t *testing.T) {
	tree := NewTree(Config{MaxUncleDepth: 6, BlocksHint: 16}, minerGenesis)
	p1 := mustExtend(t, tree, tree.Genesis(), minerPool)
	u := mustExtend(t, tree, tree.Genesis(), minerHonest)
	mustExtend(t, tree, p1, minerPool, u)

	tree.Reset(Config{MaxUncleDepth: 6, BlocksHint: 16}, minerGenesis)
	if tree.Len() != 1 {
		t.Fatalf("Len after Reset = %d, want 1", tree.Len())
	}
	if tree.TotalUncleRefs() != 0 {
		t.Errorf("TotalUncleRefs after Reset = %d, want 0", tree.TotalUncleRefs())
	}
	if tree.FirstChildOf(tree.Genesis()) != NoBlock {
		t.Error("genesis has children after Reset")
	}

	// The reused tree must behave exactly like a fresh one: rebuild the
	// same structure and check its links, heights and uncle references.
	p1 = mustExtend(t, tree, tree.Genesis(), minerPool)
	u = mustExtend(t, tree, tree.Genesis(), minerHonest)
	p2 := mustExtend(t, tree, p1, minerPool, u)
	if got := tree.UnclesOf(p2); len(got) != 1 || got[0] != u {
		t.Errorf("UnclesOf(p2) = %v, want [%d]", got, u)
	}
	if got := tree.HeightOf(p2); got != 2 {
		t.Errorf("Height(p2) = %d, want 2", got)
	}
	if kids := children(tree, tree.Genesis()); len(kids) != 2 {
		t.Errorf("genesis children = %v, want two", kids)
	}
}

func TestBlockInfoAccessorsAgree(t *testing.T) {
	tree, a1, a2, b1 := fork(t)
	a3 := mustExtend(t, tree, a2, minerPool, b1)
	want := map[BlockID]struct {
		parent BlockID
		height int
		miner  MinerID
		uncles []BlockID
	}{
		tree.Genesis(): {NoBlock, 0, minerGenesis, nil},
		a2:             {a1, 2, minerPool, nil},
		b1:             {a1, 2, minerHonest, nil},
		a3:             {a2, 3, minerPool, []BlockID{b1}},
	}
	for id, w := range want {
		parent, height, uncles := tree.BlockInfo(id)
		if parent != w.parent || height != w.height || !slices.Equal(uncles, w.uncles) {
			t.Errorf("BlockInfo(%d) = (%d,%d,%v), want (%d,%d,%v)", id, parent, height, uncles, w.parent, w.height, w.uncles)
		}
		if tree.ParentOf(id) != parent || tree.HeightOf(id) != height || !slices.Equal(tree.UnclesOf(id), uncles) {
			t.Errorf("single-field accessors disagree with BlockInfo(%d)", id)
		}
		if tree.MinerOf(id) != w.miner {
			t.Errorf("MinerOf(%d) = %d, want %d", id, tree.MinerOf(id), w.miner)
		}
	}
}

func TestExtendAtRecordsTimestamps(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	if got := tree.TimeOf(tree.Genesis()); got != 0 {
		t.Fatalf("genesis time = %v, want 0", got)
	}
	a, err := tree.ExtendAt(tree.Genesis(), minerHonest, nil, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tree.ExtendAt(a, minerPool, nil, 2.25)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.TimeOf(a); got != 1.5 {
		t.Errorf("TimeOf(a) = %v, want 1.5", got)
	}
	if got := tree.TimeOf(b); got != 2.25 {
		t.Errorf("TimeOf(b) = %v, want 2.25", got)
	}
	// A zero stamp is the timeless convention.
	c := mustExtend(t, tree, b, minerHonest)
	if got := tree.TimeOf(c); got != 0 {
		t.Errorf("TimeOf(c) = %v, want 0", got)
	}
}

func TestResetClearsTimestamps(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	if _, err := tree.ExtendAt(tree.Genesis(), minerHonest, nil, 42); err != nil {
		t.Fatal(err)
	}
	tree.Reset(Config{}, minerGenesis)
	a := mustExtend(t, tree, tree.Genesis(), minerHonest)
	if got := tree.TimeOf(a); got != 0 {
		t.Errorf("after Reset, TimeOf = %v, want 0", got)
	}
	if got := tree.TimeOf(tree.Genesis()); got != 0 {
		t.Errorf("after Reset, genesis time = %v, want 0", got)
	}
}
