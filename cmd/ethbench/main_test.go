package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestListBenchmarks(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sim-100k-blocks", "fig8-quick", "runmany-10x20k"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("list output missing %s:\n%s", name, out.String())
		}
	}
}

// BenchmarkWorkloads runs every registry workload as a sub-benchmark, so
// `go test -bench` times the same code as ethbench -baseline and -record.
func BenchmarkWorkloads(b *testing.B) {
	for _, w := range benchmarks() {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			w.run(b, 0)
		})
	}
}

func TestWorkloadNamesUnique(t *testing.T) {
	// compareBaseline keys rows by name, so a duplicate would silently
	// overwrite one workload's baseline with another's.
	seen := make(map[string]bool)
	for _, w := range benchmarks() {
		if seen[w.name] {
			t.Errorf("duplicate workload name %q", w.name)
		}
		seen[w.name] = true
	}
}

func TestBenchGateFiltersMatchWorkloads(t *testing.T) {
	// The Makefile's bench-gate target records and compares one substring
	// filter at a time; a filter that stops matching any workload would
	// silently gate nothing. Pin every BENCH_GATE_FILTERS entry against
	// the live workload registry (-list), the same names the gate runs.
	raw, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	var filters []string
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "BENCH_GATE_FILTERS"); ok {
			_, value, found := strings.Cut(rest, "=")
			if !found {
				t.Fatalf("unparseable BENCH_GATE_FILTERS line: %q", line)
			}
			filters = strings.Fields(value)
		}
	}
	if len(filters) == 0 {
		t.Fatal("no BENCH_GATE_FILTERS assignment found in Makefile")
	}
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	names := strings.Fields(out.String())
	for _, filter := range filters {
		matched := false
		for _, name := range names {
			if strings.Contains(name, filter) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("bench-gate filter %q matches no workload in -list:\n%s", filter, out.String())
		}
	}
}

func TestEmitsValidJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark")
	}
	var out bytes.Buffer
	// table2-quick is the cheapest simulation-backed benchmark.
	if err := run([]string{"-filter", "table2-quick", "-parallel", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	var results []Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.Name != "table2-quick" || r.Iterations <= 0 || r.NsPerOp <= 0 {
		t.Errorf("implausible result: %+v", r)
	}
	if r.Parallelism != 2 {
		t.Errorf("parallelism = %d, want 2", r.Parallelism)
	}
}

func TestUnknownFilterFails(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-filter", "no-such-bench"}, &out); err == nil {
		t.Error("unknown filter should fail")
	}
}

func TestRejectsPositionalArguments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"extra"}, &out); err == nil {
		t.Error("positional arguments should fail")
	}
}

func TestRecordAppendsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.json")
	first := []Result{{Name: "a", Iterations: 3, NsPerOp: 100, BytesPerOp: 64, AllocsPerOp: 2, Parallelism: 1, GOMAXPROCS: 1}}
	second := []Result{{Name: "a", Iterations: 4, NsPerOp: 90}, {Name: "b", Iterations: 1, NsPerOp: 7}}
	for _, results := range [][]Result{first, second} {
		if err := appendHistory(path, results); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var history []historyEntry
	if err := json.Unmarshal(raw, &history); err != nil {
		t.Fatalf("history is not valid JSON: %v\n%s", err, raw)
	}
	if len(history) != 2 {
		t.Fatalf("got %d history entries, want 2", len(history))
	}
	for i, want := range [][]Result{first, second} {
		if !reflect.DeepEqual(history[i].Results, want) {
			t.Errorf("entry %d results = %+v, want %+v", i, history[i].Results, want)
		}
		if history[i].Date == "" || history[i].GoVersion == "" {
			t.Errorf("entry %d lacks date or Go version: %+v", i, history[i])
		}
	}
}

func TestRecordRejectsCorruptHistory(t *testing.T) {
	// A history that does not parse must fail the record and stay
	// byte-identical, rather than be replaced by a one-entry file.
	path := filepath.Join(t.TempDir(), "history.json")
	corrupt := []byte(`[{"date": "2026-01-01", "results": [`)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, []Result{{Name: "a", NsPerOp: 1}}); err == nil {
		t.Fatal("appending to a corrupt history should fail")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, corrupt) {
		t.Errorf("corrupt history was rewritten:\n%s", raw)
	}
}

func writeBaseline(t *testing.T, results []Result) string {
	t.Helper()
	raw, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBaselinePassesWithinTolerance(t *testing.T) {
	results := []Result{{Name: "x", NsPerOp: 110, AllocsPerOp: 10}}
	base := []Result{{Name: "x", NsPerOp: 100, AllocsPerOp: 10}}
	var out bytes.Buffer
	if err := compareBaseline(&out, writeBaseline(t, base), results); err != nil {
		t.Fatalf("10%% slower should pass: %v", err)
	}
	if !strings.Contains(out.String(), "x") {
		t.Errorf("delta table missing benchmark row:\n%s", out.String())
	}
}

func TestCompareBaselineFailsOnNsRegression(t *testing.T) {
	results := []Result{{Name: "x", NsPerOp: 130, AllocsPerOp: 10}}
	base := []Result{{Name: "x", NsPerOp: 100, AllocsPerOp: 10}}
	var out bytes.Buffer
	err := compareBaseline(&out, writeBaseline(t, base), results)
	if err == nil || !strings.Contains(err.Error(), "ns/op") {
		t.Fatalf("30%% slower should fail on ns/op, got %v", err)
	}
}

func TestCompareBaselineFailsOnBytesRegression(t *testing.T) {
	results := []Result{{Name: "x", NsPerOp: 100, BytesPerOp: 13 << 20, AllocsPerOp: 10}}
	base := []Result{{Name: "x", NsPerOp: 100, BytesPerOp: 10 << 20, AllocsPerOp: 10}}
	var out bytes.Buffer
	err := compareBaseline(&out, writeBaseline(t, base), results)
	if err == nil || !strings.Contains(err.Error(), "bytes/op") {
		t.Fatalf("30%% more bytes should fail on bytes/op, got %v", err)
	}
}

func TestCompareBaselineToleratesZeroBytesBaseline(t *testing.T) {
	// Histories recorded before the bytes gate carry zero BytesPerOp;
	// comparing against them must not fabricate a regression.
	results := []Result{{Name: "x", NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 10}}
	base := []Result{{Name: "x", NsPerOp: 100, AllocsPerOp: 10}}
	var out bytes.Buffer
	if err := compareBaseline(&out, writeBaseline(t, base), results); err != nil {
		t.Fatalf("zero-bytes baseline should pass: %v", err)
	}
}

func TestCompareBaselineFailsOnAllocRegression(t *testing.T) {
	results := []Result{{Name: "x", NsPerOp: 100, AllocsPerOp: 13}}
	base := []Result{{Name: "x", NsPerOp: 100, AllocsPerOp: 10}}
	var out bytes.Buffer
	err := compareBaseline(&out, writeBaseline(t, base), results)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("30%% more allocs should fail, got %v", err)
	}
}

func TestCompareBaselineToleratesNewBenchmarks(t *testing.T) {
	// A benchmark absent from the baseline is reported but never a
	// regression, so adding benchmarks cannot break the compare gate.
	results := []Result{{Name: "brand-new", NsPerOp: 100, AllocsPerOp: 5}}
	var out bytes.Buffer
	if err := compareBaseline(&out, writeBaseline(t, nil), results); err != nil {
		t.Fatalf("new benchmark should pass: %v", err)
	}
	if !strings.Contains(out.String(), "brand-new") {
		t.Errorf("new benchmark missing from table:\n%s", out.String())
	}
}

func TestCompareBaselineMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := compareBaseline(&out, "/no/such/file.json", nil); err == nil {
		t.Error("missing baseline file should fail")
	}
}
