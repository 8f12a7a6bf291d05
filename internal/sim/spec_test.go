package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// specRoundTrips pairs parseable specs with their canonical forms; it also
// seeds FuzzStrategySpec.
var specRoundTrips = []struct {
	in        string
	canonical string
}{
	{"algorithm1", "algorithm1"},
	{"honest", "honest"},
	{"stubborn", "stubborn"},
	{"stubborn:lead=1", "stubborn:lead=1"},
	{"stubborn:trail=2,lead=1", "stubborn:lead=1,trail=2"},
	{"stubborn:fork=1,lead=0,trail=3", "stubborn:fork=1,lead=0,trail=3"},
	{"eager-publish:lead=4", "eager-publish:lead=4"},
	// Legacy aliases normalize into the grammar.
	{"trail-stubborn", "stubborn:lead=1"},
	{"eager-publish-3", "eager-publish:lead=3"},
}

// badSpecs are grammar violations ParseStrategySpec must reject; they also
// seed FuzzStrategySpec.
var badSpecs = []string{
	"", ":", "Stubborn", "stubborn:", "stubborn:lead", "stubborn:lead=",
	"stubborn:lead=x", "stubborn:lead=1,lead=2", "stubborn:LEAD=1",
	"stubborn:lead=1,", "-stubborn", "stubborn-",
}

func TestParseStrategySpecRoundTrip(t *testing.T) {
	for _, tt := range specRoundTrips {
		spec, err := ParseStrategySpec(tt.in)
		if err != nil {
			t.Errorf("ParseStrategySpec(%q): %v", tt.in, err)
			continue
		}
		if got := spec.String(); got != tt.canonical {
			t.Errorf("ParseStrategySpec(%q).String() = %q, want %q", tt.in, got, tt.canonical)
		}
		// Round trip: parsing the canonical form reproduces the spec.
		again, err := ParseStrategySpec(spec.String())
		if err != nil {
			t.Errorf("reparse %q: %v", spec.String(), err)
		} else if !reflect.DeepEqual(spec, again) {
			t.Errorf("round trip of %q: %+v != %+v", tt.in, spec, again)
		}
	}
}

func TestParseStrategySpecErrors(t *testing.T) {
	for _, in := range badSpecs {
		if _, err := ParseStrategySpec(in); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseStrategySpec(%q) err = %v, want ErrBadSpec", in, err)
		}
	}
}

// FuzzStrategySpec pins the spec grammar as a user-input boundary (spec
// strings arrive from -strategies): parsing never panics, every rejection
// wraps ErrBadSpec, and every accepted spec formats to a canonical string
// that parses back to an identical spec.
func FuzzStrategySpec(f *testing.F) {
	for _, tt := range specRoundTrips {
		f.Add(tt.in)
	}
	for _, in := range badSpecs {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseStrategySpec(in)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseStrategySpec(%q) err = %v, want ErrBadSpec", in, err)
			}
			return
		}
		canonical := spec.String()
		again, err := ParseStrategySpec(canonical)
		if err != nil {
			t.Fatalf("ParseStrategySpec(%q) = %+v, but its canonical form %q does not parse: %v", in, spec, canonical, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip of %q via %q: %+v != %+v", in, canonical, spec, again)
		}
	})
}

func TestNewStrategyFromSpec(t *testing.T) {
	tests := []struct {
		in   string
		want Strategy
	}{
		{"algorithm1", Algorithm1{}},
		{"honest", HonestStrategy{}},
		{"eager-publish", EagerPublish{Lead: 2}}, // default fills in
		{"eager-publish:lead=5", EagerPublish{Lead: 5}},
		// The pre-registry API accepted any k >= 2; large leads must
		// keep parsing.
		{"eager-publish-100", EagerPublish{Lead: 100}},
		{"stubborn", Stubborn{}},
		{"stubborn:lead=1,trail=2", Stubborn{Lead: true, Trail: 2}},
		{"stubborn:fork=1", Stubborn{EqualFork: true}},
		{"trail-stubborn", Stubborn{Lead: true}},
	}
	for _, tt := range tests {
		got, err := ParseStrategy(tt.in)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseStrategy(%q) = %#v, want %#v", tt.in, got, tt.want)
		}
	}
}

func TestNewStrategyRejectsBadSpecs(t *testing.T) {
	for _, in := range []string{
		"nonsense",             // unknown name
		"stubborn:depth=1",     // unknown parameter
		"stubborn:lead=2",      // out of range
		"stubborn:trail=99",    // out of range
		"eager-publish:lead=1", // below the minimum trigger
		"eager-publish-1",      // same, via the legacy alias
		"algorithm1:lead=1",    // parameterless strategy given a parameter
	} {
		if _, err := ParseStrategy(in); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseStrategy(%q) err = %v, want ErrBadSpec", in, err)
		}
	}
}

func TestStrategyDefsListing(t *testing.T) {
	defs := StrategyDefs()
	names := make([]string, len(defs))
	for i, def := range defs {
		names[i] = def.Name
	}
	for _, want := range []string{"algorithm1", "eager-publish", "honest", "stubborn"} {
		found := false
		for _, name := range names {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	if !sortedStrings(names) {
		t.Errorf("StrategyDefs not sorted: %v", names)
	}
	// Usage strings advertise the parameter ranges for -list consumers.
	for _, def := range defs {
		if def.Name == "stubborn" {
			usage := def.Usage()
			for _, frag := range []string{"lead=0..1", "fork=0..1", "trail=0..16"} {
				if !strings.Contains(usage, frag) {
					t.Errorf("stubborn usage %q missing %q", usage, frag)
				}
			}
		}
	}
}

func TestNewStrategiesForPools(t *testing.T) {
	specs := []StrategySpec{
		MustStrategySpec("algorithm1"),
		MustStrategySpec("stubborn:trail=1"),
	}
	strategies, err := NewStrategies(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(strategies) != 2 || strategies[0] != (Algorithm1{}) || strategies[1] != (Stubborn{Trail: 1}) {
		t.Errorf("NewStrategies = %#v", strategies)
	}
	if _, err := NewStrategies([]StrategySpec{{Name: "nope"}}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("err = %v, want ErrBadSpec", err)
	}
}

// TestStrategyDefsWellFormed checks every definition in the strategy space:
// a valid, unique name, a constructor, and valid, unique parameter keys
// whose defaults lie within their ranges.
func TestStrategyDefsWellFormed(t *testing.T) {
	names := make(map[string]bool)
	for _, def := range StrategyDefs() {
		if !validSpecName(def.Name) || names[def.Name] {
			t.Errorf("bad or duplicate name %q", def.Name)
		}
		names[def.Name] = true
		if def.New == nil {
			t.Errorf("%s: nil constructor", def.Name)
		}
		keys := make(map[string]bool)
		for _, p := range def.Params {
			if !validSpecName(p.Key) || keys[p.Key] {
				t.Errorf("%s: bad or duplicate parameter key %q", def.Name, p.Key)
			}
			keys[p.Key] = true
			if p.Min > p.Default || p.Default > p.Max {
				t.Errorf("%s:%s: want min <= default <= max, have %d, %d, %d",
					def.Name, p.Key, p.Min, p.Default, p.Max)
			}
		}
	}
}

// TestSpecRunMatchesDirectConstruction pins the registry path against the
// hand-constructed strategies: a run configured through specs is
// bit-identical to one configured through the concrete types.
func TestSpecRunMatchesDirectConstruction(t *testing.T) {
	for _, tt := range []struct {
		spec   string
		direct Strategy
	}{
		{"algorithm1", Algorithm1{}},
		{"honest", HonestStrategy{}},
		{"stubborn:lead=1", Stubborn{Lead: true}},
		{"stubborn:trail=2", Stubborn{Trail: 2}},
		{"eager-publish:lead=3", EagerPublish{Lead: 3}},
	} {
		parsed, err := ParseStrategy(tt.spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 10000, Seed: 7}
		cfg.Strategies = []Strategy{tt.direct}
		want := run(t, cfg)
		cfg.Strategies = []Strategy{parsed}
		if got := run(t, cfg); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: spec-built run differs from direct construction", tt.spec)
		}
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}
