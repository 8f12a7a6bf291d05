// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver returns typed rows and can render itself
// as a text table, so the command-line harness, the benchmarks, and the
// tests all share the same code paths.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// Paper-scale simulation defaults (Sec. V: averages of 10 runs, each
// generating 100,000 blocks).
const (
	// DefaultRuns is the paper's run count per data point.
	DefaultRuns = 10

	// DefaultBlocks is the paper's blocks per run.
	DefaultBlocks = 100000

	// QuickRuns and QuickBlocks trade precision for speed; used by the
	// benchmarks and tests.
	QuickRuns   = 2
	QuickBlocks = 20000
)

// ErrBadOptions is returned for invalid experiment options.
var ErrBadOptions = errors.New("experiments: invalid options")

// Options scales the simulation effort behind each experiment.
type Options struct {
	// Runs is the number of independent simulation runs per data point
	// (zero: DefaultRuns).
	Runs int

	// Blocks is the number of block events per run (zero:
	// DefaultBlocks).
	Blocks int

	// Seed derives per-run seeds (zero is a valid seed).
	Seed uint64

	// Parallelism bounds the worker goroutines the experiment engine
	// uses to schedule (grid-point × run) work items. Zero means
	// runtime.GOMAXPROCS(0); one forces sequential execution. Results
	// are identical regardless of the setting.
	Parallelism int

	// Ctx cancels a sweep early: once done, no new work items start,
	// in-flight runs finish, and the sweep returns the context's error.
	// Every completed row is already stored in Cache, if set, so rerunning
	// the sweep over the same disk cache resumes it bit-identically. Nil
	// means no cancellation.
	Ctx context.Context

	// Cache, when non-nil, is consulted before any simulation runs: every
	// (grid-point × run) row is content-addressed through the jobkey
	// encoder, served from the cache on a hit, and stored after a miss.
	// Because a row is a pure function of its address (determinism
	// invariant 3), cache hits are bit-identical to recomputation — any
	// sweep containing a previously cached point reuses its rows, even a
	// sweep of a different experiment. One Cache may serve many sweeps and
	// many invocations (via its disk journal; see resultcache.Open), which
	// is also how an interrupted sweep resumes: rerun it over the same
	// journal.
	Cache *resultcache.Cache

	// Audit enables the simulator's runtime invariant auditor for every
	// run in the sweep. Auditing never changes results; see
	// sim.AuditConfig.
	Audit sim.AuditConfig

	// FastForward turns on the simulator's analytic fast-forward (see
	// sim.Config.FastForward) for every run in the sweep. Fast-forwarded
	// runs agree with plain runs in distribution, not bit-for-bit, so the
	// mode participates in every row's content address: rows cached in one
	// mode are never served to the other.
	FastForward bool

	// NoDecisionTables keeps every run on the live Strategy interface
	// path instead of the compiled decision tables (see
	// sim.Config.NoDecisionTables). The knob never changes results, so it
	// does not participate in content addresses.
	NoDecisionTables bool
}

func (o Options) withDefaults() Options {
	if o.Runs == 0 {
		o.Runs = DefaultRuns
	}
	if o.Blocks == 0 {
		o.Blocks = DefaultBlocks
	}
	return o
}

func (o Options) validate() error {
	if o.Runs < 0 || o.Blocks < 0 {
		return fmt.Errorf("%w: negative runs or blocks", ErrBadOptions)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("%w: negative parallelism", ErrBadOptions)
	}
	return nil
}

// Quick returns options sized for fast regeneration (benchmarks, smoke
// tests); the shapes of all results survive the reduction.
func Quick() Options {
	return Options{Runs: QuickRuns, Blocks: QuickBlocks}
}
