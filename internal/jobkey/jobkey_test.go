package jobkey

import (
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// configFields records how the encoder treats every sim.Config field:
// "encoded" fields participate in ForConfig, the rest are excluded for the
// stated reason. TestConfigFieldCoverage diffs this map against the struct
// by reflection, so adding a config field fails the test until the encoder
// handles it (or its exclusion is argued here) — the guarantee that cache
// identity can never silently miss a field.
var configFields = map[string]string{
	"Population":         "encoded",
	"Gamma":              "encoded",
	"Schedule":           "encoded",
	"Blocks":             "encoded",
	"MaxUnclesPerBlock":  "encoded",
	"Strategy":           "encoded",
	"Strategies":         "encoded",
	"PoolOmitsUncleRefs": "encoded",
	"Time":               "encoded",
	"FastForward":        "encoded",
	"Antithetic":         "encoded",
	"Seed":               "excluded: joins per run via Key.Row",
	"NoDecisionTables":   "excluded: table and interface paths are bit-identical (pinned by the equivalence suite), so the knob is result-neutral",
	"Parallelism":        "excluded: scheduling knob, result-neutral by the RunMany contract",
	"Audit":              "excluded: observer, can only fail a run, never change it",
}

// timeFields and difficultyFields extend the coverage check into the
// nested time-axis configuration, all of whose fields are encoded.
var timeFields = map[string]string{
	"Enabled":    "encoded",
	"Difficulty": "encoded",
}

var difficultyFields = map[string]string{
	"Rule":       "encoded",
	"TargetRate": "encoded",
	"Epoch":      "encoded",
	"Initial":    "encoded",
}

func checkCoverage(t *testing.T, typ reflect.Type, fields map[string]string) {
	t.Helper()
	seen := make(map[string]bool)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		if _, ok := fields[name]; !ok {
			t.Errorf("%s.%s is not handled by the jobkey encoder: encode it in writeConfig or record why it cannot change results", typ, name)
		}
	}
	for name := range fields {
		if !seen[name] {
			t.Errorf("%s.%s no longer exists; prune it from the coverage map", typ, name)
		}
	}
}

// TestConfigFieldCoverage is the satellite guarantee: every sim.Config
// field (and every field of the nested time configuration) is either
// encoded or deliberately excluded with a recorded reason.
func TestConfigFieldCoverage(t *testing.T) {
	checkCoverage(t, reflect.TypeOf(sim.Config{}), configFields)
	checkCoverage(t, reflect.TypeOf(sim.TimeConfig{}), timeFields)
	checkCoverage(t, reflect.TypeOf(difficulty.Params{}), difficultyFields)
}

func baseConfig(t *testing.T) sim.Config {
	t.Helper()
	pop, err := mining.TwoAgent(0.3)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{Population: pop, Gamma: 0.5, Blocks: 20000}
}

// TestKeySensitivity: every encoded field separates keys; every excluded
// field leaves them unchanged.
func TestKeySensitivity(t *testing.T) {
	base := ForConfig(baseConfig(t))

	mutants := map[string]func(*sim.Config){
		"Gamma":              func(c *sim.Config) { c.Gamma = 0.6 },
		"Blocks":             func(c *sim.Config) { c.Blocks = 40000 },
		"MaxUnclesPerBlock":  func(c *sim.Config) { c.MaxUnclesPerBlock = 2 },
		"PoolOmitsUncleRefs": func(c *sim.Config) { c.PoolOmitsUncleRefs = true },
		"FastForward":        func(c *sim.Config) { c.FastForward = true },
		"Antithetic":         func(c *sim.Config) { c.Antithetic = true },
		"Time":               func(c *sim.Config) { c.Time = sim.TimeConfig{Enabled: true} },
		"Time.Difficulty": func(c *sim.Config) {
			c.Time = sim.TimeConfig{Enabled: true, Difficulty: difficulty.Params{Rule: difficulty.EIP100}}
		},
		"Strategy":   func(c *sim.Config) { c.Strategy = sim.Stubborn{Lead: true} },
		"Strategies": func(c *sim.Config) { c.Strategies = []sim.Strategy{sim.Stubborn{Trail: 1}} },
		"Schedule": func(c *sim.Config) {
			sched, err := rewards.Constant(0.5, rewards.NoDepthLimit)
			if err != nil {
				t.Fatal(err)
			}
			c.Schedule = sched
		},
		"Population": func(c *sim.Config) {
			pop, err := mining.TwoAgent(0.31)
			if err != nil {
				t.Fatal(err)
			}
			c.Population = pop
		},
	}
	for name, mutate := range mutants {
		cfg := baseConfig(t)
		mutate(&cfg)
		if ForConfig(cfg) == base {
			t.Errorf("mutating %s did not change the key", name)
		}
	}

	neutral := map[string]func(*sim.Config){
		"Seed":        func(c *sim.Config) { c.Seed = 99 },
		"Parallelism": func(c *sim.Config) { c.Parallelism = 7 },
		"Audit":       func(c *sim.Config) { c.Audit = sim.AuditConfig{Enabled: true, SampleEvery: 64} },
	}
	for name, mutate := range neutral {
		cfg := baseConfig(t)
		mutate(&cfg)
		if ForConfig(cfg) != base {
			t.Errorf("result-neutral field %s changed the key", name)
		}
	}
}

// TestAddressContinuity pins addresses across the removal of the
// settlement-mode flag: a timeless row keeps the exact address it had while
// the flag existed (its slot still encodes false, so warm caches stay
// valid), while a timed row, whose Steady window moved to the midpoint-floor
// boundary, must not resolve to the address of the old definition.
func TestAddressContinuity(t *testing.T) {
	const (
		timeless = "22b9ddc9924614da0b8ba4d317b51ff7b4f9abd4ade21ac121cd709dffb66c8e"
		oldTimed = "4fb94762c1504d16a70ea61dcdf5f2cdcbe96dbba90bc15779eacf1c47221552"
	)
	if got := ForConfig(baseConfig(t)).Row(7).String(); got != timeless {
		t.Errorf("timeless row address %s, want the pinned %s", got, timeless)
	}
	timed := baseConfig(t)
	timed.Time = sim.TimeConfig{Enabled: true, Difficulty: difficulty.Params{Rule: difficulty.EIP100}}
	if got := ForConfig(timed).Row(7).String(); got == oldTimed {
		t.Error("timed row kept the address of the old Steady definition")
	}
}

// TestKeyCanonicalization: a defaulted config and its explicit spelling
// share an address exactly as they share results — the property that lets
// a Fig. 8 row (implicit Algorithm 1, zero schedule defaults) serve a
// best-response sweep's explicit [algorithm1] candidate.
func TestKeyCanonicalization(t *testing.T) {
	implicit := baseConfig(t)
	implicit.Schedule = rewards.Schedule{} // simulator default: Ethereum

	explicit := baseConfig(t)
	explicit.Schedule = rewards.Ethereum()
	explicit.Strategies = []sim.Strategy{sim.Algorithm1{}}

	if ForConfig(implicit) != ForConfig(explicit) {
		t.Error("defaulted config and its explicit spelling have different keys")
	}

	named := baseConfig(t)
	named.Strategy = sim.Algorithm1{}
	if ForConfig(implicit) != ForConfig(named) {
		t.Error("nil Strategy and explicit Algorithm1 have different keys")
	}
}

// TestRowKeys: distinct seeds get distinct row addresses under one key,
// and equal (config, seed) pairs collide exactly.
func TestRowKeys(t *testing.T) {
	k := ForConfig(baseConfig(t))
	if k.Row(1) == k.Row(2) {
		t.Error("distinct seeds share a row address")
	}
	if k.Row(7) != ForConfig(baseConfig(t)).Row(7) {
		t.Error("equal (config, seed) pairs have different row addresses")
	}
	if len(k.String()) != 64 {
		t.Errorf("key hex length = %d, want 64", len(k.String()))
	}
}

// TestSeedBaseCollisionRegression pins the fix for the old pointSeed
// derivation (opts.Seed + uint64(alpha*1e6)): grid points whose alphas
// collide at 1e-6 resolution used to share a stream family silently.
// SeedBase hashes the population's exact float bits, so they now get
// independent families.
func TestSeedBaseCollisionRegression(t *testing.T) {
	a, b := 0.2, 0.2+4e-7
	// The premise of the regression: the old truncation could not tell
	// these two grid points apart.
	if uint64(1+a*1e6) != uint64(1+b*1e6) {
		t.Fatalf("premise: alphas %v and %v no longer collide under the old derivation", a, b)
	}
	popA, err := mining.TwoAgent(a)
	if err != nil {
		t.Fatal(err)
	}
	popB, err := mining.TwoAgent(b)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := sim.Config{Population: popA, Gamma: 0.5, Blocks: 1000}
	cfgB := sim.Config{Population: popB, Gamma: 0.5, Blocks: 1000}
	if SeedBase(1, cfgA) == SeedBase(1, cfgB) {
		t.Errorf("alphas %v and %v share a stream family", a, b)
	}
	if SeedBase(1, cfgA) != SeedBase(1, cfgA) {
		t.Error("SeedBase is not deterministic")
	}
	if SeedBase(1, cfgA) == SeedBase(2, cfgA) {
		t.Error("sweep seed does not separate stream families")
	}
}

// TestSeedBasePairing pins the pairing contract: strategy assignment, run
// length, time/difficulty regime, and the statistical modes do not move a
// point's stream family, so candidates compared at one point run on
// identical event streams — and a cached point keeps its per-run seeds in
// any sweep that contains it.
func TestSeedBasePairing(t *testing.T) {
	cfg := baseConfig(t)
	base := SeedBase(11, cfg)

	variant := cfg
	variant.Strategies = []sim.Strategy{sim.Stubborn{Lead: true}}
	variant.Blocks = 12345
	variant.FastForward = true
	variant.Antithetic = true
	variant.Time = sim.TimeConfig{Enabled: true, Difficulty: difficulty.Params{Rule: difficulty.BitcoinStyle}}
	variant.Seed = 42
	variant.Parallelism = 3
	if SeedBase(11, variant) != base {
		t.Error("candidate-only fields moved the point's stream family")
	}

	moved := cfg
	moved.Gamma = 0.6
	if SeedBase(11, moved) == base {
		t.Error("gamma is part of the environment and must move the family")
	}
}
