package sim

import (
	"reflect"
	"runtime"
	"testing"
)

// TestAntitheticAudit runs the full auditor over the antithetic mirror
// stream on the timed axis.
func TestAntitheticAudit(t *testing.T) {
	cfg := Config{
		Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 20000, Seed: 2121,
		Antithetic: true,
		Audit:      AuditConfig{Enabled: true, SampleEvery: 64},
		Time:       TimeConfig{Enabled: true},
	}
	if _, err := Run(cfg); err != nil {
		t.Errorf("audited antithetic run failed: %v", err)
	}
}

// TestAntitheticDeterminism pins invariant 3 on the timed axis for both
// streams: identical seeds give identical results, runner reuse included,
// a fanned-out RunMany is bit-identical to sequential runs, and the antithetic
// mirror is itself deterministic yet differs from the plain stream.
func TestAntitheticDeterminism(t *testing.T) {
	cfg := Config{
		Population: twoAgent(t, 0.25), Gamma: 0.5, Blocks: 20000, Seed: 3131,
		Time: TimeConfig{Enabled: true},
	}

	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rn := NewRunner()
	dirty := Config{Population: twoAgent(t, 0.4), Gamma: 0.5, Blocks: 5000, Seed: 77}
	if _, err := rn.Run(dirty); err != nil {
		t.Fatal(err)
	}
	b, err := rn.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("timed run is not bit-deterministic across runner reuse")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pres, err := RunMany(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sequentialRuns(t, cfg, 8), pres.Runs) {
		t.Error("timed RunMany differs from sequential execution")
	}

	anti := cfg
	anti.Antithetic = true
	x, err := Run(anti)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Run(anti)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x, y) {
		t.Error("antithetic run is not bit-deterministic")
	}
	if reflect.DeepEqual(a.ByPool, x.ByPool) {
		t.Error("antithetic stream produced the same rewards as the plain stream")
	}
}
