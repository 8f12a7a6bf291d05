package sim

import (
	"reflect"
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
// RunMany is bit-identical across parallelism levels, and the antithetic
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

	seq := cfg
	seq.Parallelism = 1
	par := cfg
	par.Parallelism = 4
	sres, err := RunMany(seq, 8)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := RunMany(par, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sres, pres) {
		t.Error("timed RunMany differs between sequential and parallel execution")
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
