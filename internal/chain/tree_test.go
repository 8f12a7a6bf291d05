package chain

import (
	"errors"
	"testing"
)

const (
	minerGenesis MinerID = 0
	minerHonest  MinerID = 1
	minerPool    MinerID = 2
)

func mustExtend(t *testing.T, tree *Tree, parent BlockID, miner MinerID, uncles ...BlockID) BlockID {
	t.Helper()
	id, err := tree.Extend(parent, miner, uncles)
	if err != nil {
		t.Fatalf("Extend(parent=%d): %v", parent, err)
	}
	return id
}

func TestNewTreeGenesis(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	if tree.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tree.Len())
	}
	g := tree.Block(tree.Genesis())
	if g.Height != 0 || g.Parent != NoBlock || g.ID != 0 {
		t.Errorf("genesis = %+v", g)
	}
	if got := tree.Tips(); len(got) != 1 || got[0] != tree.Genesis() {
		t.Errorf("Tips = %v, want [genesis]", got)
	}
}

func TestExtendLinearChain(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	prev := tree.Genesis()
	for h := 1; h <= 5; h++ {
		prev = mustExtend(t, tree, prev, minerHonest)
		if got := tree.Height(prev); got != h {
			t.Fatalf("height = %d, want %d", got, h)
		}
	}
	path := tree.PathTo(prev)
	if len(path) != 6 {
		t.Fatalf("path length %d, want 6", len(path))
	}
	for i, id := range path {
		if tree.Height(id) != i {
			t.Errorf("path[%d] has height %d", i, tree.Height(id))
		}
	}
}

func TestExtendUnknownParent(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	if _, err := tree.Extend(99, minerHonest, nil); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("err = %v, want ErrUnknownBlock", err)
	}
	if _, err := tree.Extend(NoBlock, minerHonest, nil); !errors.Is(err, ErrUnknownBlock) {
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
	a3, err := tree.Extend(a2, minerPool, []BlockID{b1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.ReferencedBy(b1); got != a3 {
		t.Errorf("ReferencedBy(b1) = %d, want %d", got, a3)
	}
	if got := tree.Block(a3).Uncles; len(got) != 1 || got[0] != b1 {
		t.Errorf("Uncles = %v, want [b1]", got)
	}
}

func TestUncleCannotBeAncestor(t *testing.T) {
	tree, a1, a2, _ := fork(t)
	if _, err := tree.Extend(a2, minerPool, []BlockID{a1}); !errors.Is(err, ErrUncleIsAncestor) {
		t.Errorf("err = %v, want ErrUncleIsAncestor", err)
	}
	// The direct parent is also an ancestor (distance 1, but on-chain).
	if _, err := tree.Extend(a2, minerPool, []BlockID{a2}); !errors.Is(err, ErrUncleIsAncestor) {
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

	if _, err := tree.Extend(a2, minerPool, []BlockID{c2}); !errors.Is(err, ErrUncleNotAttached) {
		t.Errorf("c2 err = %v, want ErrUncleNotAttached", err)
	}
	if _, err := tree.Extend(a2, minerPool, []BlockID{c1}); err != nil {
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
	child, err := tree.Extend(prev, minerPool, []BlockID{u})
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
	if _, err := tree2.Extend(prev2, minerPool, []BlockID{u2}); !errors.Is(err, ErrUncleTooDeep) {
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
	if _, err := tree.Extend(prev, minerPool, []BlockID{u}); err != nil {
		t.Errorf("unlimited depth tree rejected deep uncle: %v", err)
	}
}

func TestUncleDoubleReferenceRejected(t *testing.T) {
	tree, _, a2, b1 := fork(t)
	a3 := mustExtend(t, tree, a2, minerPool, b1)
	if _, err := tree.Extend(a3, minerPool, []BlockID{b1}); !errors.Is(err, ErrUncleAlreadyReferenced) {
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
	if _, err := tree.Extend(c2, minerHonest, []BlockID{b1}); err != nil {
		t.Errorf("cross-chain second reference should be allowed: %v", err)
	}
}

func TestDuplicateUncleInOneBlock(t *testing.T) {
	tree, _, a2, b1 := fork(t)
	if _, err := tree.Extend(a2, minerPool, []BlockID{b1, b1}); !errors.Is(err, ErrDuplicateUncle) {
		t.Errorf("err = %v, want ErrDuplicateUncle", err)
	}
}

func TestMaxUnclesPerBlock(t *testing.T) {
	tree := NewTree(Config{MaxUnclesPerBlock: 2}, minerGenesis)
	a1 := mustExtend(t, tree, tree.Genesis(), minerPool)
	u1 := mustExtend(t, tree, tree.Genesis(), minerHonest)
	u2 := mustExtend(t, tree, tree.Genesis(), minerHonest)
	u3 := mustExtend(t, tree, tree.Genesis(), minerHonest)
	if _, err := tree.Extend(a1, minerPool, []BlockID{u1, u2, u3}); !errors.Is(err, ErrTooManyUncles) {
		t.Errorf("err = %v, want ErrTooManyUncles", err)
	}
	if _, err := tree.Extend(a1, minerPool, []BlockID{u1, u2}); err != nil {
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
	kids := tree.Children(a1)
	if len(kids) != 2 || kids[0] != a2 || kids[1] != b1 {
		t.Errorf("Children(a1) = %v, want [a2 b1]", kids)
	}
	tips := tree.Tips()
	if len(tips) != 2 {
		t.Errorf("Tips = %v, want two tips", tips)
	}
	// Mutating the returned slice must not affect the tree.
	kids[0] = 999
	if tree.Children(a1)[0] != a2 {
		t.Error("Children returned internal storage")
	}
}

func TestBlockPanicsOnInvalidID(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	defer func() {
		if recover() == nil {
			t.Error("Block(99) should panic")
		}
	}()
	tree.Block(99)
}

func TestExtendRejectsNegativeMinerID(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	if _, err := tree.Extend(tree.Genesis(), -1, nil); !errors.Is(err, ErrBadMinerID) {
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
	if tree.HasChildren(tree.Genesis()) {
		t.Error("genesis has children after Reset")
	}

	// The reused tree must behave exactly like a fresh one: rebuild the
	// same structure and check its links, heights and uncle references.
	p1 = mustExtend(t, tree, tree.Genesis(), minerPool)
	u = mustExtend(t, tree, tree.Genesis(), minerHonest)
	p2 := mustExtend(t, tree, p1, minerPool, u)
	if got := tree.ReferencedBy(u); got != p2 {
		t.Errorf("ReferencedBy(u) = %d, want %d", got, p2)
	}
	if got := tree.Height(p2); got != 2 {
		t.Errorf("Height(p2) = %d, want 2", got)
	}
	if kids := tree.Children(tree.Genesis()); len(kids) != 2 {
		t.Errorf("genesis children = %v, want two", kids)
	}
}

func TestBlockInfoAccessorsAgree(t *testing.T) {
	tree, _, a2, b1 := fork(t)
	a3 := mustExtend(t, tree, a2, minerPool, b1)
	for _, id := range []BlockID{tree.Genesis(), a2, b1, a3} {
		b := tree.Block(id)
		parent, height, uncles := tree.BlockInfo(id)
		p2, h2 := tree.ParentAndHeight(id)
		if parent != b.Parent || height != b.Height || len(uncles) != len(b.Uncles) {
			t.Errorf("BlockInfo(%d) = (%d,%d,%v), Block = %+v", id, parent, height, uncles, b)
		}
		if p2 != b.Parent || h2 != b.Height {
			t.Errorf("ParentAndHeight(%d) = (%d,%d), Block = %+v", id, p2, h2, b)
		}
		if tree.MinerOf(id) != b.Miner || tree.HeightOf(id) != b.Height {
			t.Errorf("accessors disagree with Block(%d)", id)
		}
	}
	if !tree.IsForkChild(b1) {
		t.Error("b1 shares a parent with a2; IsForkChild should be true")
	}
	if tree.IsForkChild(a3) || tree.IsForkChild(tree.Genesis()) {
		t.Error("only child and genesis must not be fork children")
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
	if got := tree.Block(b).Time; got != 2.25 {
		t.Errorf("Block(b).Time = %v, want 2.25", got)
	}
	// The plain Extend path stamps zero, the timeless convention.
	c := mustExtend(t, tree, b, minerHonest)
	if got := tree.TimeOf(c); got != 0 {
		t.Errorf("TimeOf(c) = %v, want 0 from Extend", got)
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

// TestExtendRunMatchesExtendAt pins the bulk append against the per-block
// path: the same linear run built either way must produce identical records,
// links, heights, timestamps, and tip.
func TestExtendRunMatchesExtendAt(t *testing.T) {
	bulk := NewTree(Config{MaxUncleDepth: 6, MaxUnclesPerBlock: 2}, minerGenesis)
	single := NewTree(Config{MaxUncleDepth: 6, MaxUnclesPerBlock: 2}, minerGenesis)

	// Start both trees from a non-trivial prefix: genesis -> a -> fork(b, c),
	// extend the run on b.
	for _, tree := range []*Tree{bulk, single} {
		a := mustExtend(t, tree, tree.Genesis(), minerHonest)
		mustExtend(t, tree, a, minerPool) // c: the fork child left behind
		mustExtend(t, tree, a, minerHonest)
	}
	parent := BlockID(3)

	const (
		count = 17
		start = 10.0
		step  = 0.5
	)
	tip, err := bulk.ExtendRun(parent, minerHonest, count, start, step)
	if err != nil {
		t.Fatal(err)
	}
	prev := parent
	at := start
	var want BlockID
	for j := 0; j < count; j++ {
		at += step
		id, err := single.ExtendAt(prev, minerHonest, nil, at)
		if err != nil {
			t.Fatal(err)
		}
		prev = id
		want = id
	}
	if tip != want {
		t.Fatalf("ExtendRun tip %d, want %d", tip, want)
	}
	if bulk.Len() != single.Len() {
		t.Fatalf("Len = %d, want %d", bulk.Len(), single.Len())
	}
	for id := BlockID(0); int(id) < bulk.Len(); id++ {
		bb, sb := bulk.Block(id), single.Block(id)
		if bb.Parent != sb.Parent || bb.Height != sb.Height || bb.Miner != sb.Miner ||
			len(bb.Uncles) != len(sb.Uncles) {
			t.Errorf("block %d: bulk %+v, single %+v", id, bb, sb)
		}
		if bulk.TimeOf(id) != single.TimeOf(id) {
			t.Errorf("block %d: time %v, want %v", id, bulk.TimeOf(id), single.TimeOf(id))
		}
		if bulk.FirstChildOf(id) != single.FirstChildOf(id) || bulk.NextSiblingOf(id) != single.NextSiblingOf(id) {
			t.Errorf("block %d: link mismatch", id)
		}
	}
	// The run introduces no forks: every run block is the sole child.
	for id := tip - count + 1; id <= tip; id++ {
		if bulk.IsForkChild(id) {
			t.Errorf("run block %d is a fork child", id)
		}
	}
}

func TestExtendRunErrors(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	if _, err := tree.ExtendRun(99, minerHonest, 3, 0, 0); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("unknown parent: err = %v, want ErrUnknownBlock", err)
	}
	if _, err := tree.ExtendRun(tree.Genesis(), -1, 3, 0, 0); !errors.Is(err, ErrBadMinerID) {
		t.Errorf("bad miner: err = %v, want ErrBadMinerID", err)
	}
	if _, err := tree.ExtendRun(tree.Genesis(), minerHonest, 0, 0, 0); err == nil {
		t.Error("count 0: want error")
	}
}
