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

// groupClocks returns groupOverlays rotated by shift, so every overlay takes
// a turn as overlay 0 (the one that stamps into the tree).
func groupClocks(shift int) []difficulty.Params {
	clocks := make([]difficulty.Params, len(groupOverlays))
	for i := range clocks {
		clocks[i] = groupOverlays[(i+shift)%len(groupOverlays)]
	}
	return clocks
}

// TestRunGroupMatchesRun pins the shared walk: every Result of a grouped run
// equals, under reflect.DeepEqual, the Result of running the race under its
// clock alone, across attack sizes, tie-breaking, auditing, and one Runner
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
					clocks := groupClocks(shift)
					shift++
					grouped := make([]Result, len(clocks))
					if err := rn.RunGroup(race, clocks, grouped); err != nil {
						t.Fatal(err)
					}
					for i, clock := range clocks {
						cfg := race
						cfg.Time.Difficulty = clock
						single, err := rn.Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(grouped[i], single) {
							t.Errorf("overlay %d (%+v): grouped result differs from its single run", i, clock)
							diffResults(t, single, grouped[i])
						}
					}
				})
			}
		}
	}
}

// TestRunGroupRejectsBadClocks: RunGroup rejects what its signature cannot
// rule out — a result slice of the wrong length, an invalid clock, a clock
// whose Epoch (which moves the Early window) differs from the race's, and
// more than one clock, or a feedback clock, under fast-forward.
func TestRunGroupRejectsBadClocks(t *testing.T) {
	race := Config{Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 500, Seed: 3, Time: TimeConfig{Enabled: true}}
	ffwd := race
	ffwd.FastForward = true
	cases := map[string]struct {
		race   Config
		clocks []difficulty.Params
		out    int
	}{
		"short out":                   {race, groupOverlays, 1},
		"no clocks":                   {race, nil, 0},
		"epoch":                       {race, []difficulty.Params{{}, {Rule: difficulty.EIP100, Epoch: 64}}, 2},
		"invalid clock":               {race, []difficulty.Params{{}, {Rule: difficulty.BitcoinStyle, TargetRate: -1}}, 2},
		"fast-forward":                {ffwd, []difficulty.Params{{Initial: 1}, {Initial: 2}}, 2},
		"fast-forward feedback clock": {ffwd, []difficulty.Params{{Rule: difficulty.EIP100}}, 1},
	}
	rn := NewRunner()
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if err := rn.RunGroup(c.race, c.clocks, make([]Result, c.out)); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
	// Epochs compare after defaults: an explicit default epoch on the race
	// matches clocks that leave it zero.
	race.Time.Difficulty.Epoch = difficulty.DefaultEpoch
	if err := rn.RunGroup(race, groupOverlays, make([]Result, len(groupOverlays))); err != nil {
		t.Errorf("clocks of the race's defaulted epoch rejected: %v", err)
	}
}

// TestAuditCatchesSwappedOverlayStamps: the auditor checks every overlay's
// stamps against that overlay's own clock, so swapping two overlays' stamp
// columns behind the engine's back must fail the next audit.
func TestAuditCatchesSwappedOverlayStamps(t *testing.T) {
	race := Config{
		Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 400, Seed: 5, Time: TimeConfig{Enabled: true},
		// Sampled past the run's end: the run itself audits nothing, so
		// the final audit sweeps every block.
		Audit: AuditConfig{Enabled: true, SampleEvery: 1 << 20},
	}.withDefaults()
	clocks := []difficulty.Params{{Initial: 1}, {Initial: 3}, {Initial: 5}}
	for _, swap := range []bool{false, true} {
		var s simulator
		s.init(race, clocks)
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
