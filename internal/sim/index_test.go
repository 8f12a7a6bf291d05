package sim

import (
	"errors"
	"testing"

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

// midRace initializes a simulator for cfg and plays events until ready
// reports the state wanted (after at least warmup events, so the streaming
// settlement has evicted a prefix), failing after a generous budget.
func midRace(tb testing.TB, cfg Config, warmup int, ready func(*simulator) bool) *simulator {
	tb.Helper()
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		tb.Fatal(err)
	}
	s := &simulator{}
	s.init(cfg)
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

// indexConfig is the single-pool configuration the index tests and
// benchmarks run at a given reference depth.
func indexConfig(tb testing.TB, depth int) Config {
	tb.Helper()
	pop, err := mining.TwoAgent(0.35)
	if err != nil {
		tb.Fatal(err)
	}
	schedule, err := rewards.Constant(0.5, depth)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{Population: pop, Gamma: 0.5, Schedule: schedule, Blocks: 1 << 30, Seed: 3}
}

// indexDepths are the reference windows the index is exercised at: the
// Ethereum depth and the engine's widest window (the paper's Fig. 8).
var indexDepths = []struct {
	name  string
	depth int
}{
	{"window=6", 6},
	{"window=64", rewards.NoDepthLimit},
}

// TestAuditCatchesCorruptedChainIndex: clearing the floor's decided bit, or
// marking an open candidate as already referenced, must fail the next audit
// — the auditor genuinely rebuilds the index and rescans eligibility.
func TestAuditCatchesCorruptedChainIndex(t *testing.T) {
	for _, d := range indexDepths {
		t.Run(d.name, func(t *testing.T) {
			cfg := indexConfig(t, d.depth)
			cfg.Audit = AuditConfig{Enabled: true, SampleEvery: 1}

			s := midRace(t, cfg, 2000, raceUnderway)
			if err := s.aud.check(s); err != nil {
				t.Fatalf("clean state failed the audit: %v", err)
			}
			s.flags[int(s.floor)-s.idBase] &^= flagDecided
			if err := s.aud.checkChainIndex(s); !errors.Is(err, ErrAudit) {
				t.Errorf("err = %v, want ErrAudit after clearing the floor's decided bit", err)
			}
			s.flags[int(s.floor)-s.idBase] |= flagDecided

			p := &s.pools[0]
			open := s.eligibleUncles(p.tip(), 1)[0]
			s.flags[int(open)-s.idBase] |= flagRefDecided
			if err := s.aud.checkEligibility(s); !errors.Is(err, ErrAudit) {
				t.Errorf("err = %v, want ErrAudit after marking open candidate %d referenced", err, open)
			}
		})
	}
}

// BenchmarkEligibleUncles times one uncle-eligibility query for each side
// of a race in flight: the pool's private tip and the public tip.
func BenchmarkEligibleUncles(b *testing.B) {
	for _, d := range indexDepths {
		b.Run(d.name, func(b *testing.B) {
			s := midRace(b, indexConfig(b, d.depth), 2000, raceUnderway)
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
	for _, d := range indexDepths {
		b.Run(d.name, func(b *testing.B) {
			s := midRace(b, indexConfig(b, d.depth), 2000, raceUnderway)
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
