package chain

import (
	"math"
	"testing"

	"github.com/ethselfish/ethselfish/internal/rewards"
)

// fig3 reconstructs the example tree of Fig. 3 in the paper:
//
//	heights:   1    2    3    4    5    6    7    8
//	main:      A -> B2 -> C1 -> D1 -> E1 -> F1 -> G1 -> H1
//	stale:     B1, B3 (children of A);  C2 (child of B2);  D2 (child of C1)
//	refs:      C1 references B3 (distance 1)
//	           F1 references D2 (distance 2)
//	           B1 is an uncle in the figure; we let E1 reference it
//	           (distance 4), making uncles {B1, B3, D2} and nephews
//	           {C1, F1, E1}. The figure shows only C1 and F1 as nephews
//	           because B1's reference link is left implicit; the test
//	           body checks both variants.
func fig3(t *testing.T, referenceB1 bool) (tree *Tree, ids map[string]BlockID) {
	t.Helper()
	tree = NewTree(Config{MaxUncleDepth: 6}, minerGenesis)
	ids = make(map[string]BlockID)
	add := func(name string, parent BlockID, miner MinerID, uncles ...BlockID) BlockID {
		id := mustExtend(t, tree, parent, miner, uncles...)
		ids[name] = id
		return id
	}
	a := add("A", tree.Genesis(), minerHonest)
	b1 := add("B1", a, minerHonest)
	b2 := add("B2", a, minerHonest)
	add("B3", a, minerHonest)
	add("C2", b2, minerHonest)
	c1 := add("C1", b2, minerHonest, ids["B3"])
	d1 := add("D1", c1, minerHonest)
	add("D2", c1, minerHonest)
	var e1 BlockID
	if referenceB1 {
		e1 = add("E1", d1, minerHonest, b1)
	} else {
		e1 = add("E1", d1, minerHonest)
	}
	f1 := add("F1", e1, minerHonest, ids["D2"])
	g1 := add("G1", f1, minerHonest)
	add("H1", g1, minerHonest)
	return tree, ids
}

func TestFig3Classification(t *testing.T) {
	tree, ids := fig3(t, false)
	class := tree.Classify(ids["H1"])

	regular := []string{"A", "B2", "C1", "D1", "E1", "F1", "G1", "H1"}
	for _, name := range regular {
		if class[ids[name]] != Regular {
			t.Errorf("%s classified %v, want regular", name, class[ids[name]])
		}
	}
	for _, name := range []string{"B3", "D2"} {
		if class[ids[name]] != Uncle {
			t.Errorf("%s classified %v, want uncle", name, class[ids[name]])
		}
	}
	// Without an explicit reference, B1 and C2 are plain stale blocks.
	for _, name := range []string{"B1", "C2"} {
		if class[ids[name]] != Stale {
			t.Errorf("%s classified %v, want stale", name, class[ids[name]])
		}
	}
}

func TestFig3ReferenceDistances(t *testing.T) {
	tree, ids := fig3(t, true)
	s, err := tree.Settle(ids["H1"], rewards.Ethereum())
	if err != nil {
		t.Fatal(err)
	}
	wantDistance := map[BlockID]int{
		ids["B3"]: 1, // referenced by C1 (Fig. 3: distance one)
		ids["D2"]: 2, // referenced by F1 (Fig. 3: distance two)
		ids["B1"]: 3, // referenced by E1 (height 5) in this reconstruction
	}
	if len(s.Refs) != len(wantDistance) {
		t.Fatalf("got %d refs, want %d", len(s.Refs), len(wantDistance))
	}
	for _, ref := range s.Refs {
		if want := wantDistance[ref.Uncle]; ref.Distance != want {
			t.Errorf("uncle %d referenced at distance %d, want %d",
				ref.Uncle, ref.Distance, want)
		}
	}
	if s.RegularCount != 8 {
		t.Errorf("RegularCount = %d, want 8", s.RegularCount)
	}
	if s.UncleCount != 3 {
		t.Errorf("UncleCount = %d, want 3", s.UncleCount)
	}
	if s.StaleCount != 1 { // C2 remains stale
		t.Errorf("StaleCount = %d, want 1", s.StaleCount)
	}
}

func TestSettleRewardValues(t *testing.T) {
	// pool mines a1<-a2, honest mines sibling b1; pool's a2... use
	// distinct miners to check attribution:
	//   genesis -> p1(pool) -> p2(pool, references h1) -> p3(pool)
	//   h1(honest) is a child of genesis.
	tree := NewTree(Config{MaxUncleDepth: 6}, minerGenesis)
	p1 := mustExtend(t, tree, tree.Genesis(), minerPool)
	h1 := mustExtend(t, tree, tree.Genesis(), minerHonest)
	p2 := mustExtend(t, tree, p1, minerPool, h1)
	p3 := mustExtend(t, tree, p2, minerPool)

	s, err := tree.Settle(p3, rewards.Ethereum())
	if err != nil {
		t.Fatal(err)
	}
	pool := s.MinerRewards[minerPool]
	honest := s.MinerRewards[minerHonest]
	if !s.MinerSeen[minerPool] || !s.MinerSeen[minerHonest] || s.MinerSeen[minerGenesis] {
		t.Errorf("MinerSeen = %v, want both miners and not genesis", s.MinerSeen)
	}

	if pool.Static != 3 {
		t.Errorf("pool static = %v, want 3", pool.Static)
	}
	// h1 referenced by p2 at distance 2-1 = 1: uncle reward 7/8 to
	// honest, nephew 1/32 to pool.
	if got, want := honest.Uncle, 7.0/8; math.Abs(got-want) > 1e-12 {
		t.Errorf("honest uncle = %v, want %v", got, want)
	}
	if got, want := pool.Nephew, 1.0/32; math.Abs(got-want) > 1e-12 {
		t.Errorf("pool nephew = %v, want %v", got, want)
	}
	if honest.Static != 0 || honest.Nephew != 0 || pool.Uncle != 0 {
		t.Errorf("unexpected components: pool=%+v honest=%+v", pool, honest)
	}
	var total Reward
	for _, r := range s.MinerRewards {
		total = total.Add(r)
	}
	if got, want := total.Total(), 3+7.0/8+1.0/32; math.Abs(got-want) > 1e-12 {
		t.Errorf("total = %v, want %v", got, want)
	}
}

func TestSettleSelfReferenceSameMiner(t *testing.T) {
	// A miner referencing its own uncle earns both uncle and nephew
	// rewards; the single-miner bookkeeping path must not drop either.
	tree := NewTree(Config{MaxUncleDepth: 6}, minerGenesis)
	p1 := mustExtend(t, tree, tree.Genesis(), minerPool)
	u := mustExtend(t, tree, tree.Genesis(), minerPool)
	p2 := mustExtend(t, tree, p1, minerPool, u)

	s, err := tree.Settle(p2, rewards.Ethereum())
	if err != nil {
		t.Fatal(err)
	}
	pool := s.MinerRewards[minerPool]
	if pool.Static != 2 {
		t.Errorf("static = %v, want 2", pool.Static)
	}
	// u (height 1) referenced by p2 (height 2): distance 1, Ku = 7/8.
	if got, want := pool.Uncle, 7.0/8; math.Abs(got-want) > 1e-12 {
		t.Errorf("uncle = %v, want %v (distance 1)", got, want)
	}
	if got, want := pool.Nephew, 1.0/32; math.Abs(got-want) > 1e-12 {
		t.Errorf("nephew = %v, want %v", got, want)
	}
}

func TestSettleZeroSchedule(t *testing.T) {
	tree, _, a2, b1 := fork(t)
	a3 := mustExtend(t, tree, a2, minerPool, b1)
	s, err := tree.Settle(a3, rewards.Bitcoin())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.MinerRewards[minerHonest].Total(); got != 0 {
		t.Errorf("honest total = %v, want 0 under Bitcoin schedule", got)
	}
	if got := s.MinerRewards[minerPool].Static; got != 3 {
		t.Errorf("pool static = %v, want 3", got)
	}
}

func TestSettleInvalidTip(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	if _, err := tree.Settle(42, rewards.Ethereum()); err == nil {
		t.Error("Settle on unknown tip should fail")
	}
}

func TestSettleGenesisOnly(t *testing.T) {
	tree := NewTree(Config{}, minerGenesis)
	s, err := tree.Settle(tree.Genesis(), rewards.Ethereum())
	if err != nil {
		t.Fatal(err)
	}
	if s.RegularCount != 0 || s.UncleCount != 0 || s.StaleCount != 0 {
		t.Errorf("counts = %d/%d/%d, want all zero", s.RegularCount, s.UncleCount, s.StaleCount)
	}
	if len(s.MinerRewards) != 0 || len(s.MinerSeen) != 0 {
		t.Errorf("tallies = %v (seen %v), want empty", s.MinerRewards, s.MinerSeen)
	}
}

func TestSettleCountsPartitionBlocks(t *testing.T) {
	// regular + uncle + stale must equal all non-genesis blocks when the
	// schedule's depth limit matches the tree's.
	tree, ids := fig3(t, true)
	s, err := tree.Settle(ids["H1"], rewards.Ethereum())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.RegularCount+s.UncleCount+s.StaleCount, tree.Len()-1; got != want {
		t.Errorf("partition = %d, want %d", got, want)
	}
}

func TestLongestTips(t *testing.T) {
	tree, _, a2, b1 := fork(t)
	tips := tree.LongestTips()
	if len(tips) != 2 || tips[0] != a2 || tips[1] != b1 {
		t.Errorf("LongestTips = %v, want [a2 b1]", tips)
	}
	a3 := mustExtend(t, tree, a2, minerPool)
	tips = tree.LongestTips()
	if len(tips) != 1 || tips[0] != a3 {
		t.Errorf("LongestTips = %v, want [a3]", tips)
	}
}

func TestRewardAddAndTotal(t *testing.T) {
	a := Reward{Static: 1, Uncle: 0.5, Nephew: 0.25}
	b := Reward{Static: 2, Uncle: 0.5, Nephew: 0.75}
	sum := a.Add(b)
	if sum.Static != 3 || sum.Uncle != 1 || sum.Nephew != 1 {
		t.Errorf("Add = %+v", sum)
	}
	if got := sum.Total(); got != 5 {
		t.Errorf("Total = %v, want 5", got)
	}
}

func TestClassificationString(t *testing.T) {
	tests := []struct {
		give Classification
		want string
	}{
		{Regular, "regular"},
		{Uncle, "uncle"},
		{Stale, "stale"},
		{Classification(0), "classification(0)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}
