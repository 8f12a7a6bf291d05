package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/ethselfish/ethselfish/internal/experiments"
	"github.com/ethselfish/ethselfish/internal/sim"
)

func TestRunStaticExperiments(t *testing.T) {
	for _, name := range []string{"table1", "fig6", "fig7"} {
		var b strings.Builder
		if err := run(context.Background(), []string{name}, &b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Len() == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}

func TestRunQuickSimExperiment(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-quick", "table2"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Expectation") {
		t.Errorf("table2 output missing expectation row:\n%s", b.String())
	}
}

func TestRunCSV(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-csv", "fig6"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "pool,share") {
		t.Errorf("CSV output = %q", b.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"nonsense"}, &b); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := run(context.Background(), []string{}, &b); err == nil {
		t.Error("missing experiment should fail")
	}
}

func TestRunList(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Every experiment appears, including the new engines.
	for _, name := range experimentNames() {
		if !strings.Contains(out, name) {
			t.Errorf("-list missing experiment %q", name)
		}
	}
	// The strategy section is generated from the registry: names,
	// parameter ranges, and defaults.
	for _, want := range []string{
		"stubborn[:lead=0..1,fork=0..1,trail=0..16]",
		"eager-publish[:lead=2..1048576]",
		"algorithm1",
		"honest",
		"trail=0..16 (0)",
		"trail-stubborn (= stubborn:lead=1)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q:\n%s", want, out)
		}
	}
	if err := run(context.Background(), []string{"-list", "fig8"}, &b); err == nil {
		t.Error("-list with an experiment argument should fail")
	}
}

func TestRunTournamentFromSpecStrings(t *testing.T) {
	var b strings.Builder
	err := run(context.Background(), []string{
		"-quick", "-runs", "1", "-blocks", "2000",
		"-strategies", "algorithm1,stubborn:lead=1,trail=2",
		"tournament",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Tournament") {
		t.Errorf("tournament output missing title:\n%s", out)
	}
	if !strings.Contains(out, "stubborn:lead=1,trail=2") {
		t.Errorf("tournament output missing the multi-parameter spec:\n%s", out)
	}
}

func TestRunStrategiesFromSpecStrings(t *testing.T) {
	var b strings.Builder
	err := run(context.Background(), []string{
		"-quick", "-runs", "1", "-blocks", "2000",
		"-strategies", "honest,eager-publish-3",
		"strategies",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	// The legacy alias is normalized to its canonical spec in the output.
	if !strings.Contains(b.String(), "eager-publish:lead=3") {
		t.Errorf("strategies output missing normalized spec:\n%s", b.String())
	}
}

func TestRunRejectsBadSpecStrings(t *testing.T) {
	var b strings.Builder
	for _, specs := range []string{"nonsense", "stubborn:lead=9", "stubborn:depth=1"} {
		if err := run(context.Background(), []string{"-strategies", specs, "tournament"}, &b); err == nil {
			t.Errorf("-strategies %q should fail before simulating", specs)
		}
	}
	// A lone entrant is rejected up front, even for "all" — before the
	// sweep burns through every earlier experiment.
	for _, name := range []string{"tournament", "all"} {
		err := run(context.Background(), []string{"-strategies", "honest", name}, &b)
		if err == nil || !strings.Contains(err.Error(), "at least 2 specs") {
			t.Errorf("%s with one spec: err = %v, want early entrant-count rejection", name, err)
		}
	}
	// bestresponse searches a fixed grid; -strategies is rejected
	// rather than silently ignored.
	err := run(context.Background(), []string{"-strategies", "algorithm1,stubborn:trail=4", "bestresponse"}, &b)
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("bestresponse with -strategies: err = %v, want rejection", err)
	}
}

func TestParseSpecList(t *testing.T) {
	got, err := parseSpecList("algorithm1,stubborn:lead=1,trail=2,honest")
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.StrategySpec{
		sim.MustStrategySpec("algorithm1"),
		sim.MustStrategySpec("stubborn:lead=1,trail=2"),
		sim.MustStrategySpec("honest"),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseSpecList = %v, want %v", got, want)
	}
	if specs, err := parseSpecList(""); err != nil || specs != nil {
		t.Errorf("empty list = %v, %v", specs, err)
	}
}

func TestBuildAllNamesResolve(t *testing.T) {
	// Every advertised experiment must resolve (analytic ones complete;
	// simulation ones are exercised in quick mode elsewhere).
	for _, name := range experimentNames() {
		switch name {
		case "fig8", "table2", "diffablation", "strategies", "tournament",
			"bestresponse", "profitability":
			continue // heavy: covered by TestRunQuickSimExperiment and package tests
		}
		if _, err := build(name, experiments.Quick(), nil, nil); err != nil {
			t.Errorf("build(%q): %v", name, err)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("paper harness end-to-end run is slow")
	}
	var b strings.Builder
	if err := run(context.Background(), []string{"-quick", "-runs", "1", "-blocks", "4000", "all"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table I", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10",
		"Table II", "Sec. VI", "Difficulty-rule ablation", "Strategy comparison",
		"Pool wars", "Tournament", "Best response", "Profitability",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("all output missing %q", want)
		}
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var b strings.Builder
	err := run(ctx, []string{"-quick", "-runs", "1", "-blocks", "2000", "table2"}, &b)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// The resume hint appears only when a disk cache holds the completed
	// rows; -checkpoint is an alias for -cachedir.
	for _, flag := range []string{"-cachedir", "-checkpoint"} {
		dir := filepath.Join(t.TempDir(), "cache")
		err = run(ctx, []string{"-quick", "-runs", "1", "-blocks", "2000", flag, dir, "table2"}, &b)
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "rerun the same command to resume") {
			t.Errorf("%s: err = %v, want context.Canceled with a resume hint", flag, err)
		}
	}
}

func TestRunCheckpointFlag(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	args := []string{"-quick", "-runs", "1", "-blocks", "2000", "-checkpoint", dir, "table2"}
	var first, second strings.Builder
	if err := run(context.Background(), args, &first); err != nil {
		t.Fatal(err)
	}
	// The second invocation is served from the cache directory the alias
	// named instead of recomputing; output must be bit-identical.
	if err := run(context.Background(), args, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("rerun over the -checkpoint cache produced different output")
	}
	if _, err := os.Stat(filepath.Join(dir, "results.jsonl")); err != nil {
		t.Errorf("-checkpoint did not write a cache journal: %v", err)
	}
	// A checkpoint file from before the alias is not a cache directory: it
	// fails closed, and is left as it was.
	old := filepath.Join(t.TempDir(), "sweep.ckpt")
	const journal = `{"version":1}` + "\n"
	if err := os.WriteFile(old, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-quick", "-checkpoint", old, "table2"}, &second); err == nil {
		t.Error("an old checkpoint file was accepted as a cache directory")
	}
	if data, err := os.ReadFile(old); err != nil || string(data) != journal {
		t.Errorf("old checkpoint file was modified (%v)", err)
	}
}

func TestRunAuditFlag(t *testing.T) {
	var plain, audited strings.Builder
	if err := run(context.Background(), []string{"-quick", "-runs", "1", "-blocks", "2000", "table2"}, &plain); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-quick", "-runs", "1", "-blocks", "2000", "-audit", "-audit-every", "1", "table2"}, &audited)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != audited.String() {
		t.Error("auditing changed experiment output")
	}
}

func TestRunProfitabilityRuleFlag(t *testing.T) {
	var b strings.Builder
	err := run(context.Background(), []string{
		"-quick", "-runs", "1", "-blocks", "3000",
		"-rule", "eip100,bitcoin", "profitability",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "eip100") || !strings.Contains(out, "bitcoin-style") {
		t.Errorf("profitability output missing requested rules:\n%s", out)
	}
	if strings.Contains(out, "static") {
		t.Errorf("profitability output contains unrequested static rule:\n%s", out)
	}
	// Bad rules and misplaced -rule fail before any simulation.
	if err := run(context.Background(), []string{"-rule", "bogus", "profitability"}, &b); err == nil {
		t.Error("-rule bogus should fail")
	}
	if err := run(context.Background(), []string{"-rule", "eip100", "fig8"}, &b); err == nil {
		t.Error("-rule with a non-profitability experiment should fail")
	}
}
