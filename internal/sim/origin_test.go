package sim

import (
	"errors"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
)

// runOrigin runs cfg through the engine with the race-origin fast path as
// init decided it, or forced off, and returns the settled Result. It fails
// the test when init did not turn the fast path on, so a comparison against
// the forced-off run always compares the two paths.
func runOrigin(t *testing.T, cfg Config, fast bool) Result {
	t.Helper()
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	var s simulator
	s.init(cfg, []difficulty.Rule{cfg.Time.Difficulty.Rule})
	if !s.originFast {
		t.Fatal("init left the race-origin fast path off")
	}
	s.originFast = fast
	var out [1]Result
	if err := settleRun(&s, out[:]); err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// TestOriginFastMatchesGeneralPath pins the race-origin fast path, the
// plain loop's only shortcut, bit for bit against the general honest-event
// path: the same configuration run with the fast path on and forced off
// must settle reflect.DeepEqual Results.
func TestOriginFastMatchesGeneralPath(t *testing.T) {
	multi, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	equal, err := mining.Equal(1000, 350)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"alpha 0.05", Config{Population: twoAgent(t, 0.05), Gamma: 0.5, Blocks: 20000, Seed: 51}},
		{"alpha 0.35", Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 20000, Seed: 52}},
		{"two pools", Config{Population: multi, Gamma: 0.5, Blocks: 20000, Seed: 53}},
		{"1000 miners", Config{Population: equal, Gamma: 0.5, Blocks: 20000, Seed: 54}},
		{"timed eip100", Config{
			Population: twoAgent(t, 0.25), Gamma: 0.5, Blocks: 20000, Seed: 55,
			Time: TimeConfig{Enabled: true, Difficulty: difficulty.Params{Rule: difficulty.EIP100}},
		}},
		{"no depth", Config{Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 20000, Seed: 56, Schedule: noDepthSchedule()}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			fast := runOrigin(t, tt.cfg, true)
			general := runOrigin(t, tt.cfg, false)
			if !reflect.DeepEqual(fast, general) {
				t.Error("origin fast path diverged from the general path")
				diffResults(t, general, fast)
			}
		})
	}
}

// keepStrategy keeps mining at every frame: it never adopts, so the
// race-origin fast path must not run it.
type keepStrategy struct{}

func (keepStrategy) Name() string                                 { return "keep" }
func (keepStrategy) ReactToPool(ls, lh, published int) Reaction   { return Reaction{} }
func (keepStrategy) ReactToHonest(ls, lh, published int) Reaction { return Reaction{} }

// TestAuditCatchesOriginFastWithoutAdopt: install an adopting table on a
// pool whose live strategy keeps at (0, 1, 0), behind the engine's back,
// and the audit must report ErrAudit — the fast path's premise is re-proved
// against the live strategy, not read back from the table it came from.
func TestAuditCatchesOriginFastWithoutAdopt(t *testing.T) {
	cfg := audited(Config{
		Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 200, Seed: 61,
		Strategies: []Strategy{keepStrategy{}},
	}).withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	var s simulator
	s.init(cfg, []difficulty.Rule{cfg.Time.Difficulty.Rule})
	if s.originFast {
		t.Fatal("origin fast path on for an untabled strategy")
	}
	s.pools[0].table = CompileDecisionTable(Algorithm1{})
	s.initOriginFast()
	if !s.originFast {
		t.Fatal("installed adopting table did not turn the origin fast path on")
	}
	var out [1]Result
	if err := settleRun(&s, out[:]); !errors.Is(err, ErrAudit) {
		t.Errorf("err = %v, want ErrAudit", err)
	}
}
