package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/difficulty"
)

// groupRules returns difficulty.Rules rotated by shift, so every rule takes
// a turn as overlay 0 (the one that stamps into the tree).
func groupRules(shift int) []difficulty.Rule {
	all := difficulty.Rules()
	rules := make([]difficulty.Rule, len(all))
	for i := range rules {
		rules[i] = all[(i+shift)%len(all)]
	}
	return rules
}

// TestRunGroupMatchesRun pins the shared walk: every Result of a grouped run
// equals, under reflect.DeepEqual, the Result of running the race under its
// rule alone, across attack sizes, tie-breaking, auditing, and one Runner
// reused for grouped and single runs alike.
func TestRunGroupMatchesRun(t *testing.T) {
	rn := NewRunner()
	shift := 0
	for _, audit := range []bool{false, true} {
		for _, alpha := range []float64{0.2, 1.0 / 3, 0.45} {
			for _, gamma := range []float64{0, 0.5, 1} {
				name := fmt.Sprintf("audit=%v/alpha=%.3f/gamma=%v", audit, alpha, gamma)
				t.Run(name, func(t *testing.T) {
					race := Config{Population: twoAgent(t, alpha), Gamma: gamma, Blocks: 10000, Seed: 17 + uint64(shift),
						Time: TimeConfig{Enabled: true}}
					if audit {
						race.Audit = AuditConfig{Enabled: true, SampleEvery: 5}
					}
					rules := groupRules(shift)
					shift++
					grouped := make([]Result, len(rules))
					if err := rn.RunGroup(race, rules, grouped); err != nil {
						t.Fatal(err)
					}
					for i, rule := range rules {
						cfg := race
						cfg.Time.Difficulty.Rule = rule
						single, err := rn.Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(grouped[i], single) {
							t.Errorf("overlay %d (%v): grouped result differs from its single run", i, rule)
							diffResults(t, single, grouped[i])
						}
					}
				})
			}
		}
	}
}

// TestRunGroupRejectsBadClocks: RunGroup rejects what its signature cannot
// rule out — a result slice of the wrong length and an unknown rule.
func TestRunGroupRejectsBadClocks(t *testing.T) {
	race := Config{Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 500, Seed: 3, Time: TimeConfig{Enabled: true}}
	cases := map[string]struct {
		race  Config
		rules []difficulty.Rule
		out   int
	}{
		"short out":     {race, difficulty.Rules(), 1},
		"no clocks":     {race, nil, 0},
		"invalid clock": {race, []difficulty.Rule{difficulty.Static, difficulty.Rule(42)}, 2},
	}
	rn := NewRunner()
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if err := rn.RunGroup(c.race, c.rules, make([]Result, c.out)); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

// TestAuditCatchesSwappedOverlayStamps: the auditor checks every overlay's
// stamps against that overlay's own clock, so swapping two overlays' stamp
// columns behind the engine's back must fail the next audit. The swapped
// overlays run Static and EIP100, whose stamps part at the first settled
// block.
func TestAuditCatchesSwappedOverlayStamps(t *testing.T) {
	race := Config{
		Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 400, Seed: 5, Time: TimeConfig{Enabled: true},
		// Sampled past the run's end: the run itself audits nothing, so
		// the final audit sweeps every block.
		Audit: AuditConfig{Enabled: true, SampleEvery: 1 << 20},
	}.withDefaults()
	rules := []difficulty.Rule{difficulty.Static, difficulty.Static, difficulty.EIP100}
	for _, swap := range []bool{false, true} {
		var s simulator
		s.init(race, rules)
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		if swap {
			s.overlays[0].stamps, s.overlays[1].stamps = s.overlays[1].stamps, s.overlays[0].stamps
		}
		err := s.auditFinal()
		if swap && !errors.Is(err, ErrAudit) {
			t.Errorf("err = %v, want ErrAudit after swapping two overlays' stamps", err)
		}
		if !swap && err != nil {
			t.Errorf("unswapped run failed its audit: %v", err)
		}
	}
}
