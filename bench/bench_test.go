package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// A child task re-executes the test binary; run it instead of the tests.
func TestMain(m *testing.M) {
	if task := os.Getenv(childEnv); task != "" {
		os.Exit(childMain(task))
	}
	os.Exit(m.Run())
}

// testSizes shrink every workload so that both tests below stay fast; each
// keeps at least eleven rows so that every _tail metric exists.
var testSizes = map[string]size{
	"fig8-paper":          {Runs: 1, Blocks: 2000, Draws: 20000},
	"tournament-paper":    {Runs: 1, Blocks: 2000, Draws: 20000},
	"profitability-1m":    {Runs: 1, Blocks: 4000, Draws: 20000},
	"bestresponse-extend": {Runs: 2, Blocks: 200, FixtureRuns: 1, Draws: 20000},
}

// benchmarkSpec is the part of BENCHMARK.json the drift guard reads.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDriftGuard keeps BENCHMARK.json and the benchmark in step: the same
// workloads and metric definitions, and every run emitting exactly the
// metrics the file names, each with its unit.
func TestDriftGuard(t *testing.T) {
	spec := readSpec(t)
	var specNames, names []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	for _, w := range workloads {
		names = append(names, w.name)
		if _, ok := testSizes[w.name]; !ok {
			t.Errorf("workload %s has no test size", w.name)
		}
	}
	if !slices.Equal(specNames, names) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", specNames, names)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, benchmark default %d", spec.RunSeconds, defaultSeconds)
	}
	sameDefs(t, "end_to_end", spec.EndToEnd, endToEnd, true)
	sameDefs(t, "per_layer", spec.PerLayer, perLayer, false)

	for _, w := range workloads {
		sz := testSizes[w.name]
		r, err := runEndToEnd(w, sz, 1, 0.001, t.TempDir(), os.Stderr)
		if err != nil {
			t.Fatalf("%s end to end: %v", w.name, err)
		}
		sameEmitted(t, w.name+" end to end", r.res, spec.EndToEnd)
		r, err = runTraced(w, sz, 1, t.TempDir(), "")
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		sameEmitted(t, w.name+" traced", r.res, spec.PerLayer)
	}
}

func sameDefs(t *testing.T, section string, spec []specMetric, defs []metricDef, bounded bool) {
	t.Helper()
	if len(spec) != len(defs) {
		t.Errorf("%s: BENCHMARK.json has %d metrics, benchmark %d", section, len(spec), len(defs))
		return
	}
	for i, d := range defs {
		want := specMetric{d.Name, d.Unit, d.Better, 0}
		if bounded {
			want.Bound = d.Bound
		}
		if spec[i] != want {
			t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", section, i, spec[i], want)
		}
	}
}

func sameEmitted(t *testing.T, run string, res result, spec []specMetric) {
	t.Helper()
	if res.Attempted < 1 {
		t.Errorf("%s: attempted %d", run, res.Attempted)
	}
	if len(res.Metrics) != len(spec) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", run, len(res.Metrics), len(spec))
	}
	for _, m := range spec {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", run, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", run, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestReplicaMatchesDriver: the traced run's replica addresses every row as
// the product driver does and computes the same Result for it, on all four
// grids.
func TestReplicaMatchesDriver(t *testing.T) {
	const seed = 7
	for _, w := range workloads {
		sz := testSizes[w.name]
		work := t.TempDir()
		if sz.FixtureRuns > 0 {
			if err := writeFixture(w, sz, seed, work); err != nil {
				t.Fatal(err)
			}
		}
		product := filepath.Join(work, "product")
		if err := freshCache(sz, work, product); err != nil {
			t.Fatal(err)
		}
		if _, err := repetition(w, product, options(sz, seed)); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		replicaDir := filepath.Join(work, "replica")
		if err := freshCache(sz, work, replicaDir); err != nil {
			t.Fatal(err)
		}
		rp, err := runReplica(w, sz, seed, replicaDir, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rp.gridRows != len(rp.cfgs)*sz.Runs || len(rp.rows) == 0 {
			t.Errorf("%s: replica addressed %d rows (%d unique) for %d jobs × %d runs",
				w.name, rp.gridRows, len(rp.rows), len(rp.cfgs), sz.Runs)
		}
		mismatches, err := compareJournal(product, rp)
		if err != nil {
			t.Fatal(err)
		}
		if mismatches != 0 {
			t.Errorf("%s: %d replica rows differ from the driver's journal", w.name, mismatches)
		}
	}
}
