package chain

import (
	"fmt"
	"testing"
)

// The oracles below answer the ancestor queries by plain parent walks, the
// way the tree answered them before it kept jump pointers. ok is false when
// the walk would have to read an evicted record: the query is then outside
// the tree's contract and not asked of it.

// naiveAncestorAt steps from b to its ancestor at the given height.
func naiveAncestorAt(tree *Tree, b BlockID, height int) (BlockID, bool) {
	for tree.HeightOf(b) > height {
		b = tree.ParentOf(b)
		if b < tree.Base() {
			return NoBlock, false
		}
	}
	return b, true
}

// naiveCommonAncestor lifts the deeper block to the other's height, then
// steps both to their parents until they meet.
func naiveCommonAncestor(tree *Tree, a, b BlockID) (BlockID, bool) {
	ha, hb := tree.HeightOf(a), tree.HeightOf(b)
	var ok bool
	if a, ok = naiveAncestorAt(tree, a, min(ha, hb)); !ok {
		return NoBlock, false
	}
	if b, ok = naiveAncestorAt(tree, b, min(ha, hb)); !ok {
		return NoBlock, false
	}
	for a != b {
		a, b = tree.ParentOf(a), tree.ParentOf(b)
		if a < tree.Base() || b < tree.Base() {
			return NoBlock, false
		}
	}
	return a, true
}

// checkAncestors compares AncestorAt(a, height) and CommonAncestor(a, b)
// with the oracles wherever the oracles can answer.
func checkAncestors(t testing.TB, tree *Tree, a, b BlockID, height int) {
	t.Helper()
	if want, ok := naiveAncestorAt(tree, a, height); ok {
		if got := tree.AncestorAt(a, height); got != want {
			t.Fatalf("AncestorAt(%d, %d) = %d, parent walk finds %d", a, height, got, want)
		}
	}
	if want, ok := naiveCommonAncestor(tree, a, b); ok {
		if got := tree.CommonAncestor(a, b); got != want {
			t.Fatalf("CommonAncestor(%d, %d) = %d, parent walk finds %d", a, b, got, want)
		}
		if got := tree.CommonAncestor(b, a); got != want {
			t.Fatalf("CommonAncestor(%d, %d) = %d, parent walk finds %d", b, a, got, want)
		}
	}
}

// buildForks grows a trunk of trunkLen blocks, then two forks of forkLen
// blocks each from the trunk's tip, interleaved block by block the way two
// racing branches interleave their IDs. A positive evictEvery compacts the
// trunk every evictEvery blocks down to lag heights below its tip, so the
// forks are built over a tree whose deep jump targets are gone.
func buildForks(t testing.TB, trunkLen, forkLen, evictEvery, lag int) (tree *Tree, fork, tipA, tipB BlockID) {
	t.Helper()
	tree = NewTree(Config{}, minerGenesis)
	fork = tree.Genesis()
	for h := 1; h <= trunkLen; h++ {
		var err error
		if fork, err = tree.ExtendAt(fork, minerHonest, nil, 0); err != nil {
			t.Fatal(err)
		}
		if evictEvery > 0 && h%evictEvery == 0 {
			tree.CompactBelow(h - lag)
		}
	}
	tipA, tipB = fork, fork
	for i := 0; i < forkLen; i++ {
		var err error
		if tipA, err = tree.ExtendAt(tipA, minerHonest, nil, 0); err != nil {
			t.Fatal(err)
		}
		if tipB, err = tree.ExtendAt(tipB, minerPool, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	return tree, fork, tipA, tipB
}

// TestAncestorQueriesOnDeepForks pins the jump-pointer queries on two 10k
// forks, over a full tree and over one compacted while its trunk grew.
func TestAncestorQueriesOnDeepForks(t *testing.T) {
	const forkLen = 10000
	for _, tc := range []struct {
		name            string
		evictEvery, lag int
		trunkLen        int
		wantEvicted     bool
	}{
		{name: "full", trunkLen: 100},
		{name: "compacted", trunkLen: 50000, evictEvery: 997, lag: 300, wantEvicted: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree, fork, tipA, tipB := buildForks(t, tc.trunkLen, forkLen, tc.evictEvery, tc.lag)
			if tc.wantEvicted && tree.Base() == 0 {
				t.Fatal("compacted variant evicted nothing")
			}
			if got := tree.CommonAncestor(tipA, tipB); got != fork {
				t.Fatalf("CommonAncestor(tips) = %d, want fork point %d", got, fork)
			}
			forkHeight := tree.HeightOf(fork)
			if got := tree.AncestorAt(tipA, forkHeight); got != fork {
				t.Fatalf("AncestorAt(tipA, %d) = %d, want fork point %d", forkHeight, got, fork)
			}
			// Every height of one fork against a spread of heights on the
			// other (the oracle walk is linear, so sample the pairs).
			for d := 0; d <= forkLen; d += 7 {
				a, _ := naiveAncestorAt(tree, tipA, forkHeight+d)
				b, _ := naiveAncestorAt(tree, tipB, forkHeight+(d*13)%(forkLen+1))
				checkAncestors(t, tree, a, b, forkHeight+d/2)
				checkAncestors(t, tree, a, tipA, forkHeight+d/3)
			}
			// Queries reaching into the trunk, as deep as residency allows.
			for h := tree.HeightOf(tree.Base()); h <= forkHeight; h += 1 + h%97 {
				trunk, ok := naiveAncestorAt(tree, fork, h)
				if !ok {
					continue
				}
				checkAncestors(t, tree, tipB, trunk, h)
			}
		})
	}
}

// FuzzTreeAncestors builds a random tree from the input — single extends on
// resident parents, leaf appends, linear runs and prefix compactions — and
// checks AncestorAt and CommonAncestor against the parent-walk oracles after
// every step, on queries whose answers are still resident.
func FuzzTreeAncestors(f *testing.F) {
	f.Add([]byte{0, 0, 1, 40, 0, 3, 2, 0, 1, 60, 5, 9, 3, 20, 0, 0, 1, 7})
	f.Add([]byte{1, 200, 0, 1, 255, 3, 0, 1, 0, 2, 1, 255, 17, 3, 10, 1, 90, 4})
	// A compaction between two branches' appends: the branches' jumps at
	// equal heights then differ in length, which CommonAncestor must
	// respect.
	f.Add([]byte("170000000007A00010"))
	f.Add(func() []byte {
		// Two alternating deep branches with periodic compaction.
		var in []byte
		for i := 0; i < 120; i++ {
			in = append(in, 0, byte(1+i%2), byte(i))
			if i%25 == 24 {
				in = append(in, 3, 30, 0)
			}
		}
		return in
	}())
	f.Fuzz(func(t *testing.T, in []byte) {
		tree := NewTree(Config{}, minerGenesis)
		// next returns the next input byte, zero once the input runs out.
		pos := 0
		next := func() int {
			if pos >= len(in) {
				return 0
			}
			pos++
			return int(in[pos-1])
		}
		// recent picks a resident block, counting back from the newest.
		recent := func(k int) BlockID {
			return BlockID(tree.Len() - 1 - k%(tree.Len()-int(tree.Base())))
		}
		for step := 0; pos < len(in) && step < 512; step++ {
			switch op := next() % 4; op {
			case 0:
				if _, err := tree.ExtendAt(recent(next()), minerHonest, nil, 0); err != nil {
					t.Fatal(err)
				}
			case 1:
				// A long linear run, so the jump pointers see long
				// spans.
				count := 1 + next()%64
				parent := recent(next())
				for j := 0; j < count; j++ {
					id, err := tree.ExtendAt(parent, minerPool, nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					parent = id
				}
			case 2:
				// AppendLeaf refuses a parent with children; that is fine.
				tree.AppendLeaf(recent(next()), minerHonest, 0)
			case 3:
				top := tree.HeightOf(BlockID(tree.Len() - 1))
				tree.CompactBelow(top - next()%64)
			}
			a, b := recent(next()), recent(next())
			checkAncestors(t, tree, a, b, tree.HeightOf(a)-next()%(tree.HeightOf(a)+1))
		}
		// Finally every pair of resident leaves, the shape the consensus
		// floor queries.
		tips := leaves(tree)
		if len(tips) > 32 {
			tips = tips[len(tips)-32:]
		}
		for _, a := range tips {
			for _, b := range tips {
				checkAncestors(t, tree, a, b, tree.HeightOf(a)/2)
			}
		}
	})
}

// BenchmarkCommonAncestorFork times CommonAncestor between the tips of two
// forks of the given depth: the consensus-floor query of a deep
// multi-pool race. With jump pointers it grows with log(depth).
func BenchmarkCommonAncestorFork(b *testing.B) {
	for _, depth := range []int{16, 1024, 65536} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			tree, fork, tipA, tipB := buildForks(b, 1000, depth, 0, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tree.CommonAncestor(tipA, tipB) != fork {
					b.Fatal("wrong common ancestor")
				}
			}
		})
	}
}

// BenchmarkExtendAtLinear times one ExtendAt per op on a growing linear
// chain, the per-block build cost the jump pointer adds to.
func BenchmarkExtendAtLinear(b *testing.B) {
	tree := NewTree(Config{BlocksHint: b.N}, minerGenesis)
	tip := tree.Genesis()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if tip, err = tree.ExtendAt(tip, minerHonest, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}
