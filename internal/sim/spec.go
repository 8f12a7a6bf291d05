package sim

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The paper leaves "the design of new mining strategies" as future work.
// This file turns the strategy subsystem from a handful of concrete types
// into a parameterized strategy space: a StrategySpec names a point in that
// space ("algorithm1", "stubborn:lead=1,trail=2"), and the registry — the
// fixed strategyDefs list at the end of this file, one StrategyDef per
// family — constructs Strategy instances from specs. Everything built
// from a spec still goes through the same validateReaction gate as the
// hand-written strategies, so a mis-parameterized variant fails loudly
// instead of corrupting a race.

// ErrBadSpec reports a strategy spec that does not parse or does not match
// any registered strategy definition.
var ErrBadSpec = fmt.Errorf("sim: invalid strategy spec")

// StrategySpec is a parsed point in the strategy space: a registered
// strategy name plus the integer parameters explicitly set for it. Specs
// round-trip: ParseStrategySpec(s.String()) reproduces s, and String()
// emits parameters in sorted key order so equal specs format identically.
type StrategySpec struct {
	// Name is the registered strategy name (e.g. "algorithm1",
	// "stubborn").
	Name string

	// Params holds the explicitly set parameters; keys the spec omits
	// take the definition's defaults at construction time. A nil map is
	// a parameterless spec.
	Params map[string]int
}

// String formats the spec in the canonical grammar: the name alone, or
// name:key=value,... with keys sorted.
func (s StrategySpec) String() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for i, k := range keys {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", k, s.Params[k])
	}
	return b.String()
}

// ParseStrategySpec parses the spec grammar
//
//	name
//	name:key=value,key=value,...
//
// with integer values, e.g. "algorithm1" or "stubborn:lead=1,trail=2".
// Two legacy aliases predating the grammar are still accepted and
// normalized: "trail-stubborn" (= stubborn:lead=1, the pre-registry
// variant of that name) and "eager-publish-<k>" (= eager-publish:lead=k).
// Parsing checks only the grammar; names, keys, and ranges are validated
// against the registry when the strategy is constructed.
func ParseStrategySpec(s string) (StrategySpec, error) {
	if normalized, ok := legacyAlias(s); ok {
		return normalized, nil
	}
	name, rest, hasParams := strings.Cut(s, ":")
	if !validSpecName(name) {
		return StrategySpec{}, fmt.Errorf("%w: bad name in %q", ErrBadSpec, s)
	}
	spec := StrategySpec{Name: name}
	if !hasParams {
		return spec, nil
	}
	spec.Params = make(map[string]int)
	for _, assign := range strings.Split(rest, ",") {
		key, value, ok := strings.Cut(assign, "=")
		if !ok || !validSpecName(key) {
			return StrategySpec{}, fmt.Errorf("%w: bad parameter %q in %q", ErrBadSpec, assign, s)
		}
		n, err := strconv.Atoi(value)
		if err != nil {
			return StrategySpec{}, fmt.Errorf("%w: parameter %s in %q: %v", ErrBadSpec, key, s, err)
		}
		if _, dup := spec.Params[key]; dup {
			return StrategySpec{}, fmt.Errorf("%w: duplicate parameter %s in %q", ErrBadSpec, key, s)
		}
		spec.Params[key] = n
	}
	return spec, nil
}

// MustStrategySpec parses a spec literal and panics on error; for
// compile-time-constant specs in drivers and tests.
func MustStrategySpec(s string) StrategySpec {
	spec, err := ParseStrategySpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// legacyAlias resolves the two pre-registry strategy names.
func legacyAlias(s string) (StrategySpec, bool) {
	if s == "trail-stubborn" {
		return StrategySpec{Name: "stubborn", Params: map[string]int{"lead": 1}}, true
	}
	if rest, ok := strings.CutPrefix(s, "eager-publish-"); ok {
		if k, err := strconv.Atoi(rest); err == nil {
			return StrategySpec{Name: "eager-publish", Params: map[string]int{"lead": k}}, true
		}
	}
	return StrategySpec{}, false
}

// validSpecName reports whether s is a well-formed name or parameter key:
// nonempty lowercase letters, digits, and interior dashes.
func validSpecName(s string) bool {
	if s == "" || s[0] == '-' || s[len(s)-1] == '-' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

// ParamDef describes one integer parameter of a strategy definition.
type ParamDef struct {
	// Key is the parameter name in the spec grammar.
	Key string

	// Min and Max bound the accepted values (inclusive).
	Min, Max int

	// Default is the value used when the spec omits the parameter.
	Default int

	// Doc is a one-line description for listings.
	Doc string
}

// StrategyDef describes one strategy family: a name, its parameter space,
// and a constructor. New receives a complete parameter map (defaults
// filled, every value range-checked) and must return a Strategy that is a
// pure function of its race frame, safe for concurrent use by independent
// simulators.
type StrategyDef struct {
	// Name is the spec name the definition answers to.
	Name string

	// Doc is a one-line description for listings.
	Doc string

	// Params declares the accepted parameters in display order.
	Params []ParamDef

	// New constructs the strategy from a fully defaulted parameter map.
	New func(params map[string]int) Strategy
}

// Usage renders the definition's spec shape with parameter ranges, e.g.
// "stubborn[:lead=0..1,fork=0..1,trail=0..16]".
func (d StrategyDef) Usage() string {
	if len(d.Params) == 0 {
		return d.Name
	}
	parts := make([]string, len(d.Params))
	for i, p := range d.Params {
		parts[i] = fmt.Sprintf("%s=%d..%d", p.Key, p.Min, p.Max)
	}
	return d.Name + "[:" + strings.Join(parts, ",") + "]"
}

// StrategyDefs returns the strategy definitions sorted by name.
func StrategyDefs() []StrategyDef { return slices.Clone(strategyDefs) }

// NewStrategy constructs the Strategy a spec describes: the named
// definition with the spec's parameters over the definition's defaults.
// Unknown names, unknown keys, and out-of-range values are errors.
func NewStrategy(spec StrategySpec) (Strategy, error) {
	k := slices.IndexFunc(strategyDefs, func(d StrategyDef) bool { return d.Name == spec.Name })
	if k < 0 {
		names := make([]string, len(strategyDefs))
		for i, def := range strategyDefs {
			names[i] = def.Name
		}
		return nil, fmt.Errorf("%w: unknown strategy %q (registered: %s)",
			ErrBadSpec, spec.Name, strings.Join(names, ", "))
	}
	def := strategyDefs[k]
	params := make(map[string]int, len(def.Params))
	for _, p := range def.Params {
		params[p.Key] = p.Default
	}
	for key, value := range spec.Params {
		p, ok := paramDef(def, key)
		if !ok {
			return nil, fmt.Errorf("%w: %s has no parameter %q (want %s)",
				ErrBadSpec, spec.Name, key, def.Usage())
		}
		if value < p.Min || value > p.Max {
			return nil, fmt.Errorf("%w: %s:%s=%d out of [%d, %d]",
				ErrBadSpec, spec.Name, key, value, p.Min, p.Max)
		}
		params[key] = value
	}
	return def.New(params), nil
}

// NewStrategies constructs one Strategy per spec, for Config.Strategies.
func NewStrategies(specs []StrategySpec) ([]Strategy, error) {
	out := make([]Strategy, len(specs))
	for i, spec := range specs {
		s, err := NewStrategy(spec)
		if err != nil {
			return nil, fmt.Errorf("pool %d: %w", i+1, err)
		}
		out[i] = s
	}
	return out, nil
}

// ParseStrategy parses a spec string and constructs the strategy in one
// step — the command-line entry point into the strategy space.
func ParseStrategy(s string) (Strategy, error) {
	spec, err := ParseStrategySpec(s)
	if err != nil {
		return nil, err
	}
	return NewStrategy(spec)
}

func paramDef(def StrategyDef, key string) (ParamDef, bool) {
	for _, p := range def.Params {
		if p.Key == key {
			return p, true
		}
	}
	return ParamDef{}, false
}

// strategyDefs is the strategy space, sorted by name.
var strategyDefs = []StrategyDef{
	{
		Name: "algorithm1",
		Doc:  "the paper's selfish-mining strategy (Sec. III-C)",
		New:  func(map[string]int) Strategy { return Algorithm1{} },
	},
	{
		Name: "eager-publish",
		Doc:  "commit the private branch as soon as its lead reaches the trigger",
		Params: []ParamDef{
			// No meaningful upper bound: leads beyond the reference
			// window just degenerate toward never-committing-early,
			// and the pre-registry API accepted any k >= 2.
			{Key: "lead", Min: 2, Max: 1 << 20, Default: 2, Doc: "commit trigger (private lead)"},
		},
		New: func(p map[string]int) Strategy { return EagerPublish{Lead: p["lead"]} },
	},
	{
		Name: "honest",
		Doc:  "protocol-following control: publish and commit every block",
		New:  func(map[string]int) Strategy { return HonestStrategy{} },
	},
	{
		Name: "stubborn",
		Doc:  "the stubborn-mining family (Nayak et al.): lead-, equal-fork-, and trail-stubborn axes over Algorithm 1",
		Params: []ParamDef{
			{Key: "lead", Min: 0, Max: 1, Default: 0,
				Doc: "lead-stubborn: decline the sure win at Ls=Lh+1, keep one block private and race on"},
			{Key: "fork", Min: 0, Max: 1, Default: 0,
				Doc: "equal-fork-stubborn: keep the tie-breaking block private instead of committing"},
			{Key: "trail", Min: 0, Max: 16, Default: 0,
				Doc: "trail-stubborn depth: keep racing while behind by at most this many blocks"},
		},
		New: func(p map[string]int) Strategy {
			return Stubborn{Lead: p["lead"] == 1, EqualFork: p["fork"] == 1, Trail: p["trail"]}
		},
	},
}
