package sim

import (
	"errors"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rng"
)

// This file is the decision-table equivalence suite: the proof obligation
// behind the hot path's table loads is that a compiled DecisionTable is
// extensionally equal to the strategy it was compiled from — at every frame
// of the dense window, at overflow frames beyond it (where the table falls
// back to the live call), and across whole runs (tables on vs. off must be
// bit-identical, which is why the engine always runs tabled strategies on
// their tables and no knob selects the live path).

// runLive is Run with every pool on the live Strategy interface path
// instead of its compiled decision table: each strategy rides in a struct
// that forwards its methods but lacks the frameTabled marker, so tableFor
// compiles no table (and the origin fast path stays off).
func runLive(cfg Config) (Result, error) {
	live := make([]Strategy, cfg.Population.NumPools())
	for i := range live {
		live[i] = struct{ Strategy }{cfg.strategyFor(i + 1)}
		if tableFor(live[i]) != nil {
			return Result{}, errors.New("sim: a wrapped strategy still compiles a decision table")
		}
	}
	cfg.Strategies = live
	return Run(cfg)
}

// sampleSpecs enumerates a covering sample of a definition's parameter
// space: for each parameter its minimum, default, midpoint, and maximum,
// crossed over all parameters. Registry families have at most three small
// parameters, so the product stays tiny.
func sampleSpecs(def StrategyDef) []StrategySpec {
	specs := []StrategySpec{{Name: def.Name}}
	for _, p := range def.Params {
		values := []int{p.Min, p.Default, p.Min + (p.Max-p.Min)/2, p.Max}
		seen := make(map[int]bool)
		var next []StrategySpec
		for _, v := range values {
			if seen[v] {
				continue
			}
			seen[v] = true
			for _, base := range specs {
				spec := StrategySpec{Name: def.Name, Params: map[string]int{p.Key: v}}
				for k, bv := range base.Params {
					spec.Params[k] = bv
				}
				next = append(next, spec)
			}
		}
		specs = next
	}
	return specs
}

// TestDecisionTableEquivalence compiles every registered strategy family
// across a covering sample of its parameter space and checks the table
// against the live strategy at every frame of the dense window plus a spray
// of overflow frames. Strategies are pure frame functions, so any
// discrepancy is a compilation bug, not nondeterminism.
func TestDecisionTableEquivalence(t *testing.T) {
	r := rng.New(7)
	for _, def := range StrategyDefs() {
		for _, spec := range sampleSpecs(def) {
			st, err := NewStrategy(spec)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			table := CompileDecisionTable(st)
			check := func(ls, lh, published int) {
				if got, want := table.ReactToPool(ls, lh, published), st.ReactToPool(ls, lh, published); got != want {
					t.Fatalf("%s: ReactToPool(%d, %d, %d) = %+v via table, %+v live",
						spec, ls, lh, published, got, want)
				}
				if got, want := table.ReactToHonest(ls, lh, published), st.ReactToHonest(ls, lh, published); got != want {
					t.Fatalf("%s: ReactToHonest(%d, %d, %d) = %+v via table, %+v live",
						spec, ls, lh, published, got, want)
				}
			}
			// The full dense window, including the unreachable published >
			// ls corner the grid encodes anyway.
			for ls := 0; ls < tableDim; ls++ {
				for lh := 0; lh < tableDim; lh++ {
					for published := 0; published < tableDim; published++ {
						check(ls, lh, published)
					}
				}
			}
			// Overflow frames: at least one coordinate beyond the window,
			// where the table must route to the live strategy.
			for i := 0; i < 256; i++ {
				ls, lh := intn(r, 4*tableDim), intn(r, 4*tableDim)
				if ls < tableDim && lh < tableDim {
					ls += tableDim
				}
				check(ls, lh, intn(r, ls+1))
			}
			// The precomputed origin probe matches the live reaction at
			// the race-origin frame the origin fast path relies on.
			origin := st.ReactToHonest(0, 1, 0)
			want := reactionAllowed(origin, 0, 1, 0) && origin.Adopt && !origin.Commit
			if got := table.adoptsAtOrigin; got != want {
				t.Fatalf("%s: adoptsAtOrigin = %v, live origin reaction %+v", spec, got, origin)
			}
		}
	}
}

// TestDecisionTableRunBitIdentity pins the claim the table dispatch rests
// on: a full run with compiled tables is bit-identical to the same run on
// the live interface path, for every registered family and across the
// engine's modes (timeless, timed). The live path never takes the
// race-origin fast path (it needs compiled tables), so this also pins the
// fast path against the general one.
func TestDecisionTableRunBitIdentity(t *testing.T) {
	pop, err := mining.MultiAgent(0.25, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	var fields [][]StrategySpec
	for _, def := range StrategyDefs() {
		specs := sampleSpecs(def)
		// Pair the family's default point and its most-parameterized sample
		// against an Algorithm-1 rival.
		fields = append(fields,
			[]StrategySpec{specs[0], MustStrategySpec("algorithm1")},
			[]StrategySpec{specs[len(specs)-1], MustStrategySpec("algorithm1")})
	}
	modes := []struct {
		name string
		cfg  Config
	}{
		{"timeless", Config{}},
		{"timed", Config{Time: TimeConfig{Enabled: true}}},
	}
	for _, field := range fields {
		strategies, err := NewStrategies(field)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			cfg := mode.cfg
			cfg.Population = pop
			cfg.Strategies = strategies
			cfg.Gamma = 0.5
			cfg.Blocks = 4000
			cfg.Seed = 11
			tables, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v/%s (tables): %v", field, mode.name, err)
			}
			live, err := runLive(cfg)
			if err != nil {
				t.Fatalf("%v/%s (live): %v", field, mode.name, err)
			}
			if !reflect.DeepEqual(tables, live) {
				t.Fatalf("%v/%s: table and interface paths diverged", field, mode.name)
			}
		}
	}
}

// fuzzReactor is a deliberately hostile — but pure — strategy for compile
// fuzzing: its reaction is a deterministic hash of the frame, so it hits
// every reaction shape including illegal ones (commit while behind, publish
// past the branch, retract announced blocks, commit-and-adopt).
type fuzzReactor struct {
	a, b uint64
}

func (m fuzzReactor) Name() string { return "fuzz-reactor" }

func (m fuzzReactor) ReactToPool(ls, lh, published int) Reaction {
	return m.react(0x517CC1B727220A95, ls, lh, published)
}

func (m fuzzReactor) ReactToHonest(ls, lh, published int) Reaction {
	return m.react(0x2545F4914F6CDD1D, ls, lh, published)
}

func (m fuzzReactor) react(salt uint64, ls, lh, published int) Reaction {
	x := m.a ^ salt ^ uint64(ls)*0x9E3779B97F4A7C15 ^
		uint64(lh)*0xBF58476D1CE4E5B9 ^ uint64(published)*0x94D049BB133111EB
	x ^= x >> 31
	x *= m.b | 1
	x ^= x >> 29
	var r Reaction
	switch x % 6 {
	case 0:
		// keep mining
	case 1:
		r.Adopt = true
	case 2:
		r.Commit = true
	case 3:
		r.PublishTo = int((x >> 8) % (2 * tableDim))
	case 4:
		r.Adopt = true
		r.Commit = x&(1<<16) != 0
	case 5:
		r.Commit = true
		r.PublishTo = int((x >> 8) % tableDim)
	}
	return r
}

// canonicalReaction reduces a legal reaction to the single move
// applyReaction's precedence resolves it to.
func canonicalReaction(r Reaction) Reaction {
	switch {
	case r.Adopt:
		return Reaction{Adopt: true}
	case r.Commit:
		return Reaction{Commit: true}
	default:
		return Reaction{PublishTo: r.PublishTo}
	}
}

// FuzzDecisionTableCompile pins the compile-time validation gate:
// CompileDecisionTable never panics, and whatever the strategy returns, the
// table never stores a reaction validateReaction would reject — illegal
// reactions compile to the invalid marker, whose frames replay the live
// call. Fuzzed over both a hash-hostile reactor and the registry families.
func FuzzDecisionTableCompile(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0), uint8(0))
	f.Add(uint64(1), uint64(99), uint8(1), uint8(7))
	f.Add(uint64(0xDEADBEEF), uint64(0xFEEDFACE), uint8(3), uint8(255))
	f.Fuzz(func(t *testing.T, a, b uint64, family, param uint8) {
		var st Strategy = fuzzReactor{a: a, b: b}
		if family%4 != 0 {
			defs := StrategyDefs()
			def := defs[int(family)%len(defs)]
			spec := StrategySpec{Name: def.Name}
			if len(def.Params) > 0 {
				p := def.Params[int(param)%len(def.Params)]
				spec.Params = map[string]int{p.Key: p.Min + int(param)%(p.Max-p.Min+1)}
			}
			var err error
			if st, err = NewStrategy(spec); err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
		}
		table := CompileDecisionTable(st)
		grids := []struct {
			name string
			grid []int8
			live func(ls, lh, published int) Reaction
		}{
			{"pool", table.pool, st.ReactToPool},
			{"honest", table.honest, st.ReactToHonest},
		}
		for _, g := range grids {
			for ls := 0; ls < tableDim; ls++ {
				for lh := 0; lh < tableDim; lh++ {
					for published := 0; published < tableDim; published++ {
						e, ok := entryAt(g.grid, ls, lh, published)
						if !ok {
							t.Fatalf("%s: window frame (%d, %d, %d) not in table", g.name, ls, lh, published)
						}
						live := g.live(ls, lh, published)
						if e == tableInvalid {
							if validateReaction(live, ls, lh, published) == nil {
								t.Fatalf("%s(%d, %d, %d): legal reaction %+v stored as invalid",
									g.name, ls, lh, published, live)
							}
							continue
						}
						r := decodeReaction(e)
						if err := validateReaction(r, ls, lh, published); err != nil {
							t.Fatalf("%s(%d, %d, %d): table stored rejected reaction %+v: %v",
								g.name, ls, lh, published, r, err)
						}
						// The entry encodes the reaction's *effect* under
						// applyReaction's precedence (adopt, then commit,
						// then publish), so compare canonical forms: a
						// legal commit-plus-publish compiles to the plain
						// commit it acts as.
						if r != canonicalReaction(live) {
							t.Fatalf("%s(%d, %d, %d): table %+v, live %+v",
								g.name, ls, lh, published, r, live)
						}
					}
				}
			}
		}
	})
}
