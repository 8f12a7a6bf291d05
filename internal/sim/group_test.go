package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/difficulty"
)

// groupOverlays are the clock overlays the grouped-run tests carry: the
// three rules at their defaults plus an adjusting rule off its defaults.
var groupOverlays = []difficulty.Params{
	{Rule: difficulty.Static},
	{Rule: difficulty.BitcoinStyle},
	{Rule: difficulty.EIP100},
	{Rule: difficulty.EIP100, Initial: 2, TargetRate: 0.5},
}

// groupConfigs returns one timed config per overlay in groupOverlays,
// rotated by shift so every overlay takes a turn as overlay 0 (the one that
// stamps into the tree).
func groupConfigs(base Config, shift int) []Config {
	cfgs := make([]Config, len(groupOverlays))
	for i := range cfgs {
		cfgs[i] = base
		cfgs[i].Time = TimeConfig{Enabled: true, Difficulty: groupOverlays[(i+shift)%len(groupOverlays)]}
	}
	return cfgs
}

// TestRunGroupMatchesRun pins the shared walk: every Result of a grouped run
// equals, under reflect.DeepEqual, the Result of running its config alone,
// across attack sizes, tie-breaking, auditing, and one Runner reused for
// grouped and single runs alike.
func TestRunGroupMatchesRun(t *testing.T) {
	rn := NewRunner()
	shift := 0
	for _, audit := range []bool{false, true} {
		for _, alpha := range []float64{0.2, 1.0 / 3, 0.45} {
			for _, gamma := range []float64{0, 0.5, 1} {
				name := fmt.Sprintf("audit=%v/alpha=%.3f/gamma=%v", audit, alpha, gamma)
				t.Run(name, func(t *testing.T) {
					base := Config{Population: twoAgent(t, alpha), Gamma: gamma, Blocks: 10000, Seed: 17 + uint64(shift)}
					if audit {
						base.Audit = AuditConfig{Enabled: true, SampleEvery: 5}
					}
					cfgs := groupConfigs(base, shift)
					shift++
					grouped := make([]Result, len(cfgs))
					if err := rn.RunGroup(cfgs, grouped); err != nil {
						t.Fatal(err)
					}
					for i, cfg := range cfgs {
						single, err := rn.Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(grouped[i], single) {
							t.Errorf("overlay %d (%+v): grouped result differs from its single run", i, cfg.Time.Difficulty)
							diffResults(t, single, grouped[i])
						}
					}
				})
			}
		}
	}
}

// TestRunGroupRejectsForeignConfigs: a group may differ only in the
// difficulty rule, target rate and initial difficulty.
func TestRunGroupRejectsForeignConfigs(t *testing.T) {
	base := Config{Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 500, Seed: 3}
	cases := map[string]func(cfgs []Config){
		"gamma": func(cfgs []Config) { cfgs[1].Gamma = 0.4 },
		"epoch": func(cfgs []Config) { cfgs[2].Time.Difficulty.Epoch = 64 },
		"seed":  func(cfgs []Config) { cfgs[1].Seed++ },
		"population": func(cfgs []Config) {
			cfgs[3].Population = twoAgent(t, 0.31)
		},
		"fast-forward": func(cfgs []Config) {
			for i := range cfgs {
				cfgs[i].FastForward = true
				cfgs[i].Time.Difficulty = difficulty.Params{Initial: float64(i + 1)}
			}
		},
	}
	rn := NewRunner()
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfgs := groupConfigs(base, 0)
			mutate(cfgs)
			if err := rn.RunGroup(cfgs, make([]Result, len(cfgs))); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
	if err := rn.RunGroup(groupConfigs(base, 0), make([]Result, 1)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v for a short result slice, want ErrBadConfig", err)
	}
	// The same population rebuilt, and an explicit default strategy, are
	// still the same race.
	cfgs := groupConfigs(base, 0)
	cfgs[1].Population = twoAgent(t, 0.3)
	cfgs[2].Strategies = []Strategy{Algorithm1{}}
	if err := rn.RunGroup(cfgs, make([]Result, len(cfgs))); err != nil {
		t.Errorf("equal races rejected: %v", err)
	}
}

// TestAuditCatchesSwappedOverlayStamps: the auditor checks every overlay's
// stamps against that overlay's own clock, so swapping two overlays' stamp
// columns behind the engine's back must fail the next audit.
func TestAuditCatchesSwappedOverlayStamps(t *testing.T) {
	base := Config{
		Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 400, Seed: 5,
		// Sampled past the run's end: the run itself audits nothing, so
		// the final audit sweeps every block.
		Audit: AuditConfig{Enabled: true, SampleEvery: 1 << 20},
	}
	for _, swap := range []bool{false, true} {
		cfgs := make([]Config, 3)
		for i := range cfgs {
			cfgs[i] = base
			cfgs[i].Time = TimeConfig{Enabled: true, Difficulty: difficulty.Params{Initial: float64(1 + 2*i)}}
		}
		for i := range cfgs {
			cfgs[i] = cfgs[i].withDefaults()
		}
		var s simulator
		s.init(cfgs...)
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
