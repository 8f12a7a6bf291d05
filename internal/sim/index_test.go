package sim

import (
	"errors"
	"slices"
	"testing"

	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
)

// This file exercises the floor-anchored chain index (the flagDecided and
// flagRefDecided bits) from a simulator driven event by event: the audits
// must catch a corrupted index, and the layer micro-benchmarks time uncle
// eligibility and the candidate purge from a mid-race state.

// stepEvent plays one plain-loop block event on s, including the
// end-of-event floor flush and streaming settlement (timeless runs only).
func stepEvent(s *simulator) error {
	s.recordState()
	miner := s.cfg.Population.Sample(s.random)
	s.events[miner.Pool]++
	var err error
	if miner.Pool != mining.HonestPool {
		err = s.poolEvent(int(miner.Pool)-1, miner.ID)
	} else {
		err = s.honestEvent(miner.ID)
	}
	if err != nil {
		return err
	}
	if err := s.flushFloor(); err != nil {
		return err
	}
	if s.flushDue() {
		return s.settleDecided()
	}
	return nil
}

// newSimulator returns a simulator initialized for cfg, before its first
// event.
func newSimulator(tb testing.TB, cfg Config) *simulator {
	tb.Helper()
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		tb.Fatal(err)
	}
	s := &simulator{}
	s.init(cfg, []difficulty.Rule{cfg.Time.Difficulty.Rule})
	return s
}

// midRace initializes a simulator for cfg and plays events until ready
// reports the state wanted (after at least warmup events, so the streaming
// settlement has evicted a prefix), failing after a generous budget.
func midRace(tb testing.TB, cfg Config, warmup int, ready func(*simulator) bool) *simulator {
	tb.Helper()
	s := newSimulator(tb, cfg)
	for i := 0; i < warmup+1_000_000; i++ {
		if i >= warmup && ready(s) {
			return s
		}
		if err := stepEvent(s); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Fatal("no event reached the wanted race state")
	return nil
}

// raceUnderway reports a deep-enough race with open uncle candidates: the
// pool holds a private lead of at least two blocks over several fork
// children, and its next block could reference one of them.
func raceUnderway(s *simulator) bool {
	p := &s.pools[0]
	return len(p.blocks) >= 2 && len(s.forkChildren) >= 2 &&
		len(s.eligibleUncles(p.tip(), 1)) > 0
}

// indexCase is a single-pool configuration the index tests and benchmarks
// run: the pool's share and the reference depth.
type indexCase struct {
	name  string
	alpha float64
	depth int
}

// config returns the case's configuration.
func (c indexCase) config(tb testing.TB) Config {
	tb.Helper()
	pop, err := mining.TwoAgent(c.alpha)
	if err != nil {
		tb.Fatal(err)
	}
	schedule, err := rewards.Constant(0.5, c.depth)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{Population: pop, Gamma: 0.5, Schedule: schedule, Blocks: 1 << 30, Seed: 3}
}

// indexDepths are the reference windows the index is exercised at: the
// Ethereum depth and the engine's widest window (the paper's Fig. 8).
var indexDepths = []indexCase{
	{"window=6", 0.35, 6},
	{"window=64", 0.35, rewards.NoDepthLimit},
}

// fig8Top is the top of the paper's Fig. 8 sweep: the widest window at the
// largest pool share, where races run deepest and the candidate set is
// largest.
var fig8Top = indexCase{"fig8-top", 0.45, rewards.NoDepthLimit}

// indexBenchCases are the states the layer benchmarks time.
var indexBenchCases = append(slices.Clone(indexDepths), fig8Top)

// decidedReferenced returns a candidate-window block the decided chain
// references as an uncle, if there is one: a fork child the floor purge has
// dropped from the candidate set.
func decidedReferenced(s *simulator) (windowBlock, bool) {
	for _, wb := range s.recent[s.recentHead:] {
		if s.flags[int(wb.id)-s.idBase]&flagRefDecided != 0 {
			return wb, true
		}
	}
	return windowBlock{}, false
}

// TestAuditCatchesCorruptedChainIndex: clearing the floor's decided bit,
// marking an open candidate as already referenced, or putting a candidate
// the decided chain references back into the fork-child set must fail the
// next audit — the auditor genuinely rebuilds the index, the candidate set
// and eligibility.
func TestAuditCatchesCorruptedChainIndex(t *testing.T) {
	for _, d := range indexDepths {
		t.Run(d.name, func(t *testing.T) {
			cfg := d.config(t)
			cfg.Audit = AuditConfig{Enabled: true, SampleEvery: 1}

			s := midRace(t, cfg, 2000, func(s *simulator) bool {
				_, ok := decidedReferenced(s)
				return ok && raceUnderway(s)
			})
			if err := s.aud.check(s); err != nil {
				t.Fatalf("clean state failed the audit: %v", err)
			}
			s.flags[int(s.floor)-s.idBase] &^= flagDecided
			if err := s.aud.checkChainIndex(s); !errors.Is(err, ErrAudit) {
				t.Errorf("err = %v, want ErrAudit after clearing the floor's decided bit", err)
			}
			s.flags[int(s.floor)-s.idBase] |= flagDecided

			dead, _ := decidedReferenced(s)
			live := slices.Clone(s.forkChildren)
			s.addForkChild(dead)
			if err := s.aud.checkForkChildren(s); !errors.Is(err, ErrAudit) {
				t.Errorf("err = %v, want ErrAudit after restoring decided-referenced candidate %d", err, dead.id)
			}
			s.forkChildren = live

			p := &s.pools[0]
			open := s.eligibleUncles(p.tip(), 1)[0]
			s.flags[int(open)-s.idBase] |= flagRefDecided
			if err := s.aud.checkEligibility(s); !errors.Is(err, ErrAudit) {
				t.Errorf("err = %v, want ErrAudit after marking open candidate %d referenced", err, open)
			}
		})
	}
}

// TestForkChildSetHoldsNoDecidedReference: after every event of a Fig. 8
// run, no uncle candidate is one the decided chain already references. The
// floor purge must read the referenced-on-decided bit: a candidate is often
// referenced by a losing public block as well as by the winning private
// branch, so "referenced somewhere" does not mean "referenced on the
// decided chain".
func TestForkChildSetHoldsNoDecidedReference(t *testing.T) {
	s := newSimulator(t, fig8Top.config(t))
	for i := 0; i < 20_000; i++ {
		if err := stepEvent(s); err != nil {
			t.Fatal(err)
		}
		for _, c := range s.forkChildren {
			if s.flags[int(c.id)-s.idBase]&flagRefDecided != 0 {
				t.Fatalf("event %d: candidate %d (height %d) is referenced on the decided chain but still in the fork-child set %v",
					i, c.id, c.height, s.forkChildren)
			}
		}
	}
}

// BenchmarkEligibleUncles times one uncle-eligibility query for each side
// of a race in flight: the pool's private tip and the public tip.
func BenchmarkEligibleUncles(b *testing.B) {
	for _, d := range indexBenchCases {
		b.Run(d.name, func(b *testing.B) {
			s := midRace(b, d.config(b), 2000, raceUnderway)
			p := &s.pools[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.eligibleUncles(p.tip(), 1)
				s.eligibleUncles(s.pubTip, mining.HonestPool)
			}
		})
	}
}

// BenchmarkPurgeForkChildren times one pass of the floor purge's rules
// over the candidate set of a race in flight. The pass is idempotent at a
// fixed floor, so every iteration evaluates the same set.
func BenchmarkPurgeForkChildren(b *testing.B) {
	for _, d := range indexBenchCases {
		b.Run(d.name, func(b *testing.B) {
			s := midRace(b, d.config(b), 2000, raceUnderway)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.purgeForkChildren()
			}
			b.ReportMetric(float64(len(s.forkChildren)), "candidates")
		})
	}
}

// TestAuditCatchesDeeperFloor: with two equal pools racing on separate
// public forks, a floor one block deeper than the tips' common ancestor —
// what a CommonAncestor that overshoots would maintain — must fail the
// next audit: the auditor recomputes the floor by parent walks alone.
func TestAuditCatchesDeeperFloor(t *testing.T) {
	pop, err := mining.MultiAgent(0.33, 0.33)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Population: pop, Gamma: 0.5, Blocks: 1 << 30, Seed: 5,
		Audit: AuditConfig{Enabled: true, SampleEvery: 1}}
	s := midRace(t, cfg, 2000, func(s *simulator) bool {
		return s.pubHeight-s.tree.HeightOf(s.floor) >= 16
	})
	if err := s.aud.check(s); err != nil {
		t.Fatalf("clean state failed the audit: %v", err)
	}
	s.floor = s.tree.ParentOf(s.floor)
	if err := s.aud.checkFloor(s); !errors.Is(err, ErrAudit) {
		t.Errorf("err = %v, want ErrAudit after moving the floor one block deeper", err)
	}
	if err := s.aud.check(s); !errors.Is(err, ErrAudit) {
		t.Errorf("err = %v, want ErrAudit from the full audit", err)
	}
}
