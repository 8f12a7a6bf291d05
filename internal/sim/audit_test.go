package sim

import (
	"errors"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
)

// audited returns cfg with the full (every-event) invariant audit enabled.
func audited(cfg Config) Config {
	cfg.Audit = AuditConfig{Enabled: true, SampleEvery: 1}
	return cfg
}

// TestAuditValidation: a negative sampling interval is a configuration
// error.
func TestAuditValidation(t *testing.T) {
	cfg := Config{
		Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 10,
		Audit: AuditConfig{Enabled: true, SampleEvery: -1},
	}
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
}

// TestAuditCleanRuns: the full audit passes on healthy configurations
// across the engine's feature matrix — single and multiple pools, mixed
// strategies, both gamma extremes, capped uncles, the Bitcoin schedule,
// the unbounded-depth schedule (the widest reference window, also under an
// uncle cap), and the continuous-time path.
func TestAuditCleanRuns(t *testing.T) {
	multi, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	noDepth := noDepthSchedule()
	honest, err := mining.Equal(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"single pool", Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 4000, Seed: 1}},
		{"gamma zero", Config{Population: twoAgent(t, 0.4), Gamma: 0, Blocks: 3000, Seed: 2}},
		{"gamma one", Config{Population: twoAgent(t, 0.3), Gamma: 1, Blocks: 3000, Seed: 3}},
		{"two pools mixed strategies", Config{
			Population: multi, Gamma: 0.5, Blocks: 4000, Seed: 4,
			Strategies: []Strategy{Algorithm1{}, Stubborn{Lead: true}},
		}},
		{"honest only", Config{Population: honest, Gamma: 0.5, Blocks: 2000, Seed: 5}},
		{"capped uncles", Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 3000, Seed: 6, MaxUnclesPerBlock: 2}},
		{"bitcoin schedule", Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 3000, Seed: 7, Schedule: rewards.Bitcoin()}},
		{"timed", Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 3000, Seed: 9, Time: TimeConfig{Enabled: true}}},
		{"no depth limit", Config{Population: twoAgent(t, 0.4), Gamma: 0.5, Blocks: 4000, Seed: 10, Schedule: noDepth}},
		{"no depth limit two pools", Config{
			Population: multi, Gamma: 0.5, Blocks: 4000, Seed: 12, Schedule: noDepth,
			Strategies: []Strategy{Algorithm1{}, Stubborn{Lead: true}},
		}},
		{"no depth limit capped", Config{
			Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 4000, Seed: 13, Schedule: noDepth,
			MaxUnclesPerBlock: 2,
		}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(audited(tt.cfg)); err != nil {
				t.Errorf("full audit failed a clean run: %v", err)
			}
		})
	}
}

// TestAuditDoesNotChangeResults: auditing observes; the audited Result must
// be bit-identical to the unaudited one, at every sampling interval.
func TestAuditDoesNotChangeResults(t *testing.T) {
	for _, schedule := range []rewards.Schedule{rewards.Ethereum(), noDepthSchedule()} {
		cfg := Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Schedule: schedule, Blocks: 5000, Seed: 11, Time: TimeConfig{Enabled: true}}
		want := run(t, cfg)
		for _, every := range []int{1, 7, 1024} {
			cfg.Audit = AuditConfig{Enabled: true, SampleEvery: every}
			got := run(t, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, SampleEvery=%d: audited result differs from unaudited", schedule.Name(), every)
			}
		}
	}
}

// TestAuditRunnerReuse: one Runner alternating audited and unaudited runs
// keeps both bit-identical to fresh executions — the auditor's cursor state
// resets with the rest of the simulator.
func TestAuditRunnerReuse(t *testing.T) {
	plain := Config{Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 3000, Seed: 21}
	wantPlain := run(t, plain)
	rn := NewRunner()
	for i := 0; i < 2; i++ {
		if _, err := rn.Run(audited(plain)); err != nil {
			t.Fatalf("audited run %d: %v", i, err)
		}
		got, err := rn.Run(plain)
		if err != nil {
			t.Fatalf("plain run %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, wantPlain) {
			t.Fatalf("round %d: reused Runner diverged from a fresh run", i)
		}
	}
}

// TestAuditSampledSkipsEvents: a sparse sample still audits the final state
// (regression guard: a run shorter than the interval must not escape the
// conservation check entirely).
func TestAuditSampledSkipsEvents(t *testing.T) {
	cfg := Config{
		Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 100, Seed: 31,
		Audit: AuditConfig{Enabled: true, SampleEvery: 1 << 20},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("sampled audit failed: %v", err)
	}
}

// TestAuditCatchesCorruptedForkChildren: corrupt the incremental candidate
// set behind the engine's back and the next audit must report ErrAudit —
// the auditor genuinely compares against a brute-force rescan.
func TestAuditCatchesCorruptedForkChildren(t *testing.T) {
	cfg := audited(Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 400, Seed: 41}).withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	var s simulator
	s.init(cfg, []difficulty.Rule{cfg.Time.Difficulty.Rule})
	// Run a prefix of events by hand, then inject a phantom candidate.
	pop := cfg.Population
	for i := 0; i < 50; i++ {
		s.recordState()
		miner := pop.Sample(s.random)
		var err error
		if miner.Pool != mining.HonestPool {
			err = s.poolEvent(int(miner.Pool)-1, miner.ID)
		} else {
			err = s.honestEvent(miner.ID)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	phantom := windowBlock{id: s.tree.Genesis(), height: 0}
	s.forkChildren = append(s.forkChildren, phantom)
	if err := s.auditEvent(50); !errors.Is(err, ErrAudit) {
		t.Errorf("err = %v, want ErrAudit after corrupting the fork-child set", err)
	}
}
