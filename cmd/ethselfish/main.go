// Command ethselfish regenerates every table and figure of "Selfish Mining
// in Ethereum" (Niu & Feng, ICDCS 2019), and drives the strategy-space
// engines that extend the paper (tournaments and best-response searches
// over registry strategy specs).
//
// Usage:
//
//	ethselfish [flags] <experiment>
//
// Experiments: table1, fig6, fig7, fig8, fig9, fig10, table2, secvi,
// diffablation, strategies, poolwars, tournament, bestresponse,
// profitability, precision, all.
//
// Flags:
//
//	-quick         reduced simulation effort (2 runs x 20k blocks);
//	               explicit -runs/-blocks still apply on top
//	-runs N        simulation runs per data point (default 10, as the paper;
//	               at least 1)
//	-blocks N      block events per run (default 100000, as the paper; at
//	               least 1)
//	-seed N        base RNG seed (default 1)
//	-parallel N    experiment engine workers (default 0: one per CPU;
//	               negative is rejected); results are identical at any setting
//	-strategies S  comma-separated strategy specs (e.g.
//	               "algorithm1,stubborn:lead=1,trail-stubborn") for the
//	               strategies and tournament experiments (bestresponse
//	               searches its own fixed candidate grid)
//	-rule R        comma-separated difficulty rules (static, bitcoin,
//	               eip100), each at most once, restricting the
//	               profitability experiment's rule axis (default: all three)
//	-timeout D     overall deadline for the invocation (e.g. 30m); on
//	               expiry in-flight runs finish, then the sweep stops;
//	               a negative deadline is rejected
//	-cache         serve content-addressed rows from an in-memory result
//	               cache for this invocation (an "all" sweep reuses points
//	               shared between experiments); hits are bit-identical to
//	               recomputation
//	-cachedir D    like -cache, but backed by an append-only journal in
//	               directory D, so a rerun — of the same experiment or any
//	               experiment sharing grid points — serves cached rows
//	               instead of simulating; a summary of hits and misses is
//	               printed to stderr on exit. This is also how an
//	               interrupted sweep resumes: rerun the same command and
//	               the output is bit-identical to an uninterrupted run. A
//	               final line torn by a crash is trimmed with a warning
//	-audit         enable the simulator's runtime invariant auditor
//	-audit-every N audit every Nth block event (default 1024; 0 or 1
//	               checks every event; negative is rejected). Requires -audit
//	-list          enumerate experiments and registered strategy specs
//	-csv           emit CSV instead of aligned text
//
// Interrupting with ^C stops dispatching new simulation runs and lets
// in-flight runs drain before exiting; a second ^C kills immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"

	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/experiments"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/table"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Once the first interrupt cancels ctx, restore default signal
	// handling so a second ^C kills the process instead of waiting for
	// the graceful drain.
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ethselfish:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ethselfish", flag.ContinueOnError)
	var (
		quick      = fs.Bool("quick", false, "reduced simulation effort")
		runs       = fs.Int("runs", experiments.DefaultRuns, "simulation runs per data point")
		blocks     = fs.Int("blocks", experiments.DefaultBlocks, "block events per run")
		seed       = fs.Uint64("seed", 1, "base RNG seed")
		parallel   = fs.Int("parallel", 0, "experiment engine workers (0: one per CPU)")
		strategies = fs.String("strategies", "", "comma-separated strategy specs for strategies/tournament (not bestresponse)")
		rule       = fs.String("rule", "", "comma-separated difficulty rules for profitability (static, bitcoin, eip100)")
		timeout    = fs.Duration("timeout", 0, "overall deadline (0: none); in-flight runs finish on expiry")
		cacheFlag  = fs.Bool("cache", false, "serve rows from an in-memory result cache for this invocation")
		cachedir   = fs.String("cachedir", "", "persistent result cache directory (implies -cache, survives reruns; rerun to resume)")
		audit      = fs.Bool("audit", false, "enable the runtime invariant auditor")
		auditEvery = fs.Int("audit-every", 1024, "audit every Nth block event (requires -audit)")
		list       = fs.Bool("list", false, "list experiments and registered strategy specs")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned text")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ethselfish [flags] <experiment>\n")
		fmt.Fprintf(fs.Output(), "experiments: %s\n", strings.Join(experimentNames(), ", "))
		fmt.Fprintf(fs.Output(), "run `ethselfish -list` for the strategy-spec registry\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		if fs.NArg() != 0 {
			return fmt.Errorf("-list takes no experiment argument")
		}
		return printList(w)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment, got %d arguments", fs.NArg())
	}

	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["audit-every"] && !*audit {
		return fmt.Errorf("-audit-every requires -audit")
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout %v must not be negative", *timeout)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d must not be negative", *parallel)
	}
	if *auditEvery < 0 {
		return fmt.Errorf("-audit-every %d must not be negative", *auditEvery)
	}

	specs, err := parseSpecList(*strategies)
	if err != nil {
		return err
	}
	rules, err := parseRuleList(*rule)
	if err != nil {
		return err
	}

	name := fs.Arg(0)
	if name != "all" && !slices.Contains(experimentNames(), name) {
		return unknownExperiment(name)
	}
	if len(rules) > 0 && name != "profitability" && name != "all" {
		return fmt.Errorf("-rule only applies to the profitability experiment")
	}
	// The tournament needs a field of at least two entrants; reject a
	// lone spec before any simulation runs (an "all" sweep would
	// otherwise burn through every earlier experiment first). And
	// bestresponse searches its own fixed candidate grid — reject
	// -strategies there rather than silently ignoring it.
	if len(specs) == 1 && (name == "tournament" || name == "all") {
		return fmt.Errorf("-strategies needs at least 2 specs for the tournament, got 1")
	}
	if len(specs) > 0 && name == "bestresponse" {
		return fmt.Errorf("bestresponse searches the whole stubborn family; -strategies is not supported (use strategies or tournament)")
	}

	opts := experiments.Options{Runs: *runs, Blocks: *blocks, Seed: *seed}
	if *quick {
		opts = experiments.Quick()
		opts.Seed = *seed
		// Explicitly set -runs/-blocks still apply on top of the quick
		// defaults, so effort can be dialed below (or above) quick.
		if set["runs"] {
			opts.Runs = *runs
		}
		if set["blocks"] {
			opts.Blocks = *blocks
		}
	}
	// Zero means "the default" to the experiments package; on the command
	// line it is a mistake, rejected before any simulation runs.
	if opts.Runs < 1 || opts.Blocks < 1 {
		return fmt.Errorf("%w: -runs and -blocks must be at least 1", experiments.ErrBadOptions)
	}
	opts.Parallelism = *parallel
	opts.Audit = sim.AuditConfig{Enabled: *audit, SampleEvery: *auditEvery}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts.Ctx = ctx
	// Every argument check is above: a rejected command must not create
	// -cachedir or trim and decode its journal.
	if *cachedir != "" {
		cache, err := resultcache.Open(*cachedir, 0)
		if err != nil {
			return err
		}
		if torn := cache.Stats().TornBytes; torn > 0 {
			fmt.Fprintf(os.Stderr, "ethselfish: cache: dropped a torn %d-byte final line; its row will be recomputed\n", torn)
		}
		opts.Cache = cache
	} else if *cacheFlag {
		opts.Cache = resultcache.NewMemory(0)
	}
	if cache := opts.Cache; cache != nil {
		defer func() {
			s := cache.Stats()
			fmt.Fprintf(os.Stderr, "ethselfish: cache: %d hits (%d memory, %d disk), %d misses, %d stored\n",
				s.Hits(), s.MemoryHits, s.DiskHits, s.Misses, s.Stores)
			cache.Close()
		}()
	}

	// An interrupted sweep over a disk cache is resumable; say so instead
	// of leaving a bare "context canceled".
	finish := func(err error) error {
		if err != nil && *cachedir != "" &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return fmt.Errorf("%w (completed rows are cached in %s; rerun the same command to resume)",
				err, *cachedir)
		}
		return err
	}
	if name == "all" {
		for _, exp := range experimentNames() {
			if err := emit(w, exp, opts, specs, rules, *csv); err != nil {
				return finish(err)
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		return nil
	}
	return finish(emit(w, name, opts, specs, rules, *csv))
}

// parseRuleList parses a comma-separated list of distinct difficulty rule
// names, failing before any simulation starts.
func parseRuleList(s string) ([]difficulty.Rule, error) {
	if s == "" {
		return nil, nil
	}
	var rules []difficulty.Rule
	for _, frag := range strings.Split(s, ",") {
		rule, err := difficulty.ParseRule(strings.TrimSpace(frag))
		if err != nil {
			return nil, err
		}
		if slices.Contains(rules, rule) {
			return nil, fmt.Errorf("-rule lists %v twice", rule)
		}
		rules = append(rules, rule)
	}
	return rules, nil
}

// parseSpecList parses a comma-separated list of strategy specs, validating
// each against the registry so bad specs fail before any simulation starts.
// A spec may itself contain commas between its parameters
// ("stubborn:lead=1,trail=2"), so a fragment of the bare form key=value
// continues the previous spec rather than starting a new one.
func parseSpecList(s string) ([]sim.StrategySpec, error) {
	if s == "" {
		return nil, nil
	}
	var raws []string
	for _, frag := range strings.Split(s, ",") {
		head, _, isAssign := strings.Cut(frag, "=")
		if isAssign && !strings.Contains(head, ":") && !specRegistered(head) && len(raws) > 0 {
			raws[len(raws)-1] += "," + frag
			continue
		}
		raws = append(raws, frag)
	}
	specs := make([]sim.StrategySpec, 0, len(raws))
	for _, raw := range raws {
		spec, err := sim.ParseStrategySpec(raw)
		if err != nil {
			return nil, err
		}
		if _, err := sim.NewStrategy(spec); err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// specRegistered reports whether name is a registered strategy name.
func specRegistered(name string) bool {
	for _, def := range sim.StrategyDefs() {
		if def.Name == name {
			return true
		}
	}
	return false
}

// printList enumerates the experiments and the strategy registry — the
// parameter ranges come from the registry itself, not a hand-maintained
// usage string.
func printList(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "experiments:"); err != nil {
		return err
	}
	for _, name := range experimentNames() {
		if _, err := fmt.Fprintf(w, "  %s\n", name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "\nstrategy specs (for -strategies; defaults in parentheses):"); err != nil {
		return err
	}
	for _, def := range sim.StrategyDefs() {
		if _, err := fmt.Fprintf(w, "  %-40s %s\n", def.Usage(), def.Doc); err != nil {
			return err
		}
		for _, p := range def.Params {
			if _, err := fmt.Fprintf(w, "      %s=%d..%d (%d)  %s\n", p.Key, p.Min, p.Max, p.Default, p.Doc); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "\nlegacy aliases: trail-stubborn (= stubborn:lead=1), eager-publish-<k> (= eager-publish:lead=<k>)")
	return err
}

func experimentNames() []string {
	return []string{
		"table1", "fig6", "fig7", "fig8", "fig9", "fig10", "table2",
		"secvi", "diffablation", "strategies", "poolwars", "tournament",
		"bestresponse", "profitability", "precision",
	}
}

func emit(w io.Writer, name string, opts experiments.Options, specs []sim.StrategySpec, rules []difficulty.Rule, csv bool) error {
	tab, err := build(name, opts, specs, rules)
	if err != nil {
		return err
	}
	if csv {
		return tab.RenderCSV(w)
	}
	return tab.Render(w)
}

func build(name string, opts experiments.Options, specs []sim.StrategySpec, rules []difficulty.Rule) (*table.Table, error) {
	switch name {
	case "table1":
		return experiments.Table1(), nil
	case "fig6":
		return experiments.Fig6(), nil
	case "fig7":
		return experiments.Fig7(0.3 /* alpha */, 0.5 /* gamma */, 8 /* maxLead */, opts)
	case "fig8":
		result, err := experiments.Fig8(opts)
		if err != nil {
			return nil, err
		}
		return result.Table(), nil
	case "fig9":
		result, err := experiments.Fig9(opts)
		if err != nil {
			return nil, err
		}
		return result.Table(), nil
	case "fig10":
		result, err := experiments.Fig10(opts)
		if err != nil {
			return nil, err
		}
		return result.Table(), nil
	case "table2":
		result, err := experiments.Table2(opts)
		if err != nil {
			return nil, err
		}
		return result.Table(), nil
	case "secvi":
		result, err := experiments.SecVI(opts)
		if err != nil {
			return nil, err
		}
		return result.Table(), nil
	case "diffablation":
		result, err := experiments.DiffAblation(opts)
		if err != nil {
			return nil, err
		}
		return result.Table(), nil
	case "strategies":
		result, err := experiments.Strategies(opts, specs...)
		if err != nil {
			return nil, err
		}
		return result.Table(), nil
	case "poolwars":
		result, err := experiments.PoolWars(opts)
		if err != nil {
			return nil, err
		}
		return result.Table(), nil
	case "tournament":
		result, err := experiments.Tournament(opts, specs...)
		if err != nil {
			return nil, err
		}
		return result.Table(), nil
	case "bestresponse":
		result, err := experiments.BestResponse(opts)
		if err != nil {
			return nil, err
		}
		return result.Table(), nil
	case "profitability":
		result, err := experiments.Profitability(opts, rules...)
		if err != nil {
			return nil, err
		}
		return result.Table(), nil
	case "precision":
		// The variance-reduction study: adaptive runs-to-target-CI per
		// estimator. It takes the options like every other sweep; its own
		// knobs keep their defaults.
		result, err := experiments.Precision(opts, experiments.PrecisionConfig{})
		if err != nil {
			return nil, err
		}
		return result.Table(), nil
	default:
		return nil, unknownExperiment(name)
	}
}

func unknownExperiment(name string) error {
	return fmt.Errorf("unknown experiment %q (want one of %s)",
		name, strings.Join(experimentNames(), ", "))
}
