package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/core"
)

func TestAlgorithm1ReactionsMatchPaper(t *testing.T) {
	var s Algorithm1
	tests := []struct {
		name              string
		ls, lh, published int
		honest            bool // consult ReactToHonest instead of ReactToPool
		want              Reaction
	}{
		{"pool extends lead", 3, 0, 0, false, Reaction{}},
		{"pool wins tie (2,1)", 2, 1, 1, false, Reaction{Commit: true}},
		{"pool block mid-race", 5, 1, 1, false, Reaction{}},
		{"honest at consensus", 0, 1, 0, true, Reaction{Adopt: true}},
		{"honest levels race", 1, 1, 0, true, Reaction{PublishTo: 1}},
		{"honest wins tie", 1, 2, 1, true, Reaction{Adopt: true}},
		{"honest at lead 2", 2, 1, 0, true, Reaction{Commit: true}},
		{"honest at big lead", 5, 1, 0, true, Reaction{PublishTo: 1}},
		{"honest pushes deep race", 5, 2, 1, true, Reaction{PublishTo: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var got Reaction
			if tt.honest {
				got = s.ReactToHonest(tt.ls, tt.lh, tt.published)
			} else {
				got = s.ReactToPool(tt.ls, tt.lh, tt.published)
			}
			if got != tt.want {
				t.Errorf("reaction = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestValidateReaction(t *testing.T) {
	tests := []struct {
		name      string
		reaction  Reaction
		ls, lh    int
		published int
		wantErr   bool
	}{
		{"noop", Reaction{}, 3, 1, 0, false},
		{"publish in range", Reaction{PublishTo: 2}, 3, 1, 0, false},
		{"publish too many", Reaction{PublishTo: 4}, 3, 1, 0, true},
		{"commit ahead", Reaction{Commit: true}, 3, 1, 0, false},
		{"commit behind", Reaction{Commit: true}, 1, 1, 0, true},
		{"commit and adopt", Reaction{Commit: true, Adopt: true}, 3, 1, 0, true},
		{"adopt", Reaction{Adopt: true}, 1, 2, 0, false},
		{"noop with announced blocks", Reaction{}, 3, 1, 2, false},
		{"republish announced count", Reaction{PublishTo: 2}, 3, 1, 2, false},
		{"extend announced prefix", Reaction{PublishTo: 3}, 3, 2, 2, false},
		{"un-publish announced blocks", Reaction{PublishTo: 1}, 3, 1, 2, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := validateReaction(tt.reaction, tt.ls, tt.lh, tt.published)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadReaction) {
				t.Errorf("err = %v, want ErrBadReaction", err)
			}
		})
	}
}

func TestHonestStrategyEarnsAlpha(t *testing.T) {
	// The control arm: a pool that behaves honestly earns exactly its
	// hash share and produces no forks at all.
	r := run(t, Config{
		Population: twoAgent(t, 0.3),
		Gamma:      0.5,
		Blocks:     50000,
		Seed:       101,
		Strategies: []Strategy{HonestStrategy{}},
	})
	if r.UncleCount != 0 || r.StaleCount != 0 {
		t.Errorf("honest pool produced %d uncles, %d stale blocks", r.UncleCount, r.StaleCount)
	}
	got := r.PoolAbsolute(core.Scenario1)
	// Exactly alpha in expectation; binomial noise over 50k blocks.
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("honest pool revenue %v, want ~0.3", got)
	}
}

func TestEagerPublishNeverRacesDeep(t *testing.T) {
	// EagerPublish(2) commits at lead 2, so states with lead > 2 never
	// occur at event time.
	r := run(t, Config{
		Population: twoAgent(t, 0.4),
		Gamma:      0.5,
		Blocks:     50000,
		Seed:       103,
		Strategies: []Strategy{EagerPublish{Lead: 2}},
	})
	for state, count := range r.Occupancy {
		if state.Lead() > 2 && count > 0 {
			t.Errorf("state %v occurred %d times; eager publishing should prevent it", state, count)
		}
	}
	if r.UncleCount == 0 {
		t.Error("ties still produce uncles under eager publishing")
	}
}

func TestEagerPublishBeatsHonestButTrailsAlgorithm1(t *testing.T) {
	// At high alpha the deep races Algorithm 1 wins are where the profit
	// is; committing early gives most of it up.
	const alpha = 0.4
	cfg := Config{Population: twoAgent(t, alpha), Gamma: 0.5, Blocks: 100000, Seed: 107}

	algorithm1 := run(t, cfg)
	eagerCfg := cfg
	eagerCfg.Strategies = []Strategy{EagerPublish{Lead: 2}}
	eager := run(t, eagerCfg)

	a1 := algorithm1.PoolAbsolute(core.Scenario1)
	eg := eager.PoolAbsolute(core.Scenario1)
	if eg >= a1 {
		t.Errorf("eager publishing (%v) should trail Algorithm 1 (%v) at alpha=%v", eg, a1, alpha)
	}
	if eg <= alpha {
		t.Errorf("eager publishing (%v) should still beat honest mining at alpha=%v", eg, alpha)
	}
}

func TestLeadStubbornRuns(t *testing.T) {
	// The lead-stubborn variant explores states outside the paper's
	// space (it declines the sure win); the simulation must stay
	// consistent: rewards conserved and blocks accounted for.
	r := run(t, Config{
		Population: twoAgent(t, 0.4),
		Gamma:      0.5,
		Blocks:     100000,
		Seed:       109,
		Strategies: []Strategy{Stubborn{Lead: true}},
	})
	if got := r.Pool.Static + r.Honest.Static; math.Abs(got-float64(r.RegularCount)) > 1e-9 {
		t.Errorf("static rewards %v != regular blocks %d", got, r.RegularCount)
	}
	gotNephew := r.Pool.Nephew + r.Honest.Nephew
	if math.Abs(gotNephew-float64(r.UncleCount)/32) > 1e-9 {
		t.Errorf("nephew rewards %v != UncleCount/32", gotNephew)
	}
	if r.RegularCount+r.UncleCount+r.StaleCount > r.Blocks {
		t.Error("settled more blocks than events")
	}
}

func TestLeadStubbornDiffersFromAlgorithm1(t *testing.T) {
	cfg := Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 50000, Seed: 113}
	a1 := run(t, cfg)
	stubbornCfg := cfg
	stubbornCfg.Strategies = []Strategy{Stubborn{Lead: true}}
	stubborn := run(t, stubbornCfg)
	if a1.Pool == stubborn.Pool {
		t.Error("lead-stubborn produced identical rewards to Algorithm 1")
	}
}

func TestStubbornZeroValueMatchesAlgorithm1(t *testing.T) {
	// Stubborn{} makes Algorithm 1's decision in every reachable state,
	// so whole runs must be bit-identical.
	for _, alpha := range []float64{0.2, 0.4} {
		cfg := Config{Population: twoAgent(t, alpha), Gamma: 0.5, Blocks: 20000, Seed: 131}
		a1 := run(t, cfg)
		zero := cfg
		zero.Strategies = []Strategy{Stubborn{}}
		if got := run(t, zero); !reflect.DeepEqual(a1, got) {
			t.Errorf("alpha=%v: Stubborn{} run differs from Algorithm1", alpha)
		}
	}
}

func TestStubbornBeatsAlgorithm1AtHighAlphaAndGamma(t *testing.T) {
	// Pins a dominance region of the parametric family: at alpha = 0.45,
	// gamma = 0.5, the lead+equal-fork stubborn variant strictly beats
	// Algorithm 1 (Nayak et al.'s headline result, reproduced on this
	// simulator; at gamma = 0 the ordering flips and Algorithm 1 wins).
	const alpha, gamma = 0.45, 0.5
	cfg := Config{Population: twoAgent(t, alpha), Gamma: gamma, Blocks: 50000, Seed: 12345}
	runMean := func(s Strategy) float64 {
		c := cfg
		c.Strategies = []Strategy{s}
		series, err := RunMany(c, 4)
		if err != nil {
			t.Fatal(err)
		}
		return series.PoolAbsolute(core.Scenario1).Mean()
	}
	a1 := runMean(Algorithm1{})
	stubborn := runMean(Stubborn{Lead: true, EqualFork: true})
	if stubborn <= a1+0.03 {
		t.Errorf("stubborn:fork=1,lead=1 revenue %.4f should beat algorithm1's %.4f by a clear margin at alpha=%v gamma=%v",
			stubborn, a1, alpha, gamma)
	}

	// And the flip side: with no network capability, stubbornness loses.
	zeroGamma := cfg
	zeroGamma.Gamma = 0
	zeroCfg := func(s Strategy) float64 {
		c := zeroGamma
		c.Strategies = []Strategy{s}
		series, err := RunMany(c, 4)
		if err != nil {
			t.Fatal(err)
		}
		return series.PoolAbsolute(core.Scenario1).Mean()
	}
	if a1Zero, stubbornZero := zeroCfg(Algorithm1{}), zeroCfg(Stubborn{Lead: true, EqualFork: true}); stubbornZero >= a1Zero {
		t.Errorf("at gamma=0 stubbornness (%.4f) should lose to algorithm1 (%.4f)", stubbornZero, a1Zero)
	}
}

func TestStubbornReactionTable(t *testing.T) {
	tests := []struct {
		name              string
		s                 Stubborn
		ls, lh, published int
		honest            bool
		want              Reaction
	}{
		// Lead axis.
		{"lead declines sure win", Stubborn{Lead: true}, 2, 1, 1, true, Reaction{PublishTo: 1}},
		{"lead at big lead reveals one", Stubborn{Lead: true}, 5, 2, 1, true, Reaction{PublishTo: 2}},
		{"lead still wins ties", Stubborn{Lead: true}, 2, 1, 1, false, Reaction{Commit: true}},
		// EqualFork axis.
		{"fork withholds tie-breaker", Stubborn{EqualFork: true}, 2, 1, 1, false, Reaction{}},
		{"fork commits sure win", Stubborn{EqualFork: true}, 2, 1, 1, true, Reaction{Commit: true}},
		// Trail axis.
		{"trail tolerates gap 1", Stubborn{Trail: 1}, 1, 2, 1, true, Reaction{}},
		{"trail adopts past depth", Stubborn{Trail: 1}, 1, 3, 1, true, Reaction{Adopt: true}},
		{"trail adopts empty branch", Stubborn{Trail: 3}, 0, 1, 0, true, Reaction{Adopt: true}},
		{"trail levels on catch-up", Stubborn{Trail: 1}, 2, 2, 1, false, Reaction{PublishTo: 2}},
		// Zero value = Algorithm 1.
		{"zero adopts behind", Stubborn{}, 1, 2, 1, true, Reaction{Adopt: true}},
		{"zero takes sure win", Stubborn{}, 2, 1, 1, true, Reaction{Commit: true}},
		{"zero races the tie", Stubborn{}, 1, 1, 0, true, Reaction{PublishTo: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var got Reaction
			if tt.honest {
				got = tt.s.ReactToHonest(tt.ls, tt.lh, tt.published)
			} else {
				got = tt.s.ReactToPool(tt.ls, tt.lh, tt.published)
			}
			if got != tt.want {
				t.Errorf("reaction = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestStrategyNames(t *testing.T) {
	tests := []struct {
		strategy Strategy
		want     string
	}{
		{Algorithm1{}, "algorithm1"},
		{HonestStrategy{}, "honest"},
		{EagerPublish{Lead: 3}, "eager-publish:lead=3"},
		{Stubborn{}, "stubborn"},
		{Stubborn{Lead: true}, "stubborn:lead=1"},
		{Stubborn{Lead: true, EqualFork: true, Trail: 2}, "stubborn:fork=1,lead=1,trail=2"},
	}
	for _, tt := range tests {
		if got := tt.strategy.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
		// Every Name() is a canonical spec: parsing it reconstructs an
		// identical strategy.
		rebuilt, err := ParseStrategy(tt.want)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", tt.want, err)
		} else if rebuilt != tt.strategy {
			t.Errorf("ParseStrategy(%q) = %#v, want %#v", tt.want, rebuilt, tt.strategy)
		}
	}
}
