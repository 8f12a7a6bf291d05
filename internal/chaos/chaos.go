// Package chaos is the engine's fault-injection harness: adversarial
// strategy wrappers that emit protocol-violating reactions and
// deterministic error/panic injectors for worker pools. The package exists
// to prove — in tests and in the CI chaos-smoke job — that the engine fails
// closed: every injected fault must surface as a typed error
// (sim.ErrBadReaction, parallel.ErrPanic) without crashing the process or
// poisoning reusable state.
//
// All injection is deterministic. Strategies must be pure functions of the
// race frame (instances are shared across worker goroutines), so faults
// fire from a hash of (seed, decision point, frame) rather than counters;
// likewise Injector decides per work-item index. The same seed always
// breaks the same runs in the same places.
package chaos

import (
	"errors"
	"fmt"

	"github.com/ethselfish/ethselfish/internal/sim"
)

// ErrInjected is the error Injector-driven work items return, so tests can
// tell an injected failure from a genuine one.
var ErrInjected = errors.New("chaos: injected fault")

// ErrInjectedPanic is the value injected panics carry. parallel recovers it
// into a *parallel.PanicError, whose chain keeps it visible to errors.Is.
var ErrInjectedPanic = errors.New("chaos: injected panic")

// mix is the splitmix64 finalizer; it drives every injection decision.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// coin hashes the site coordinates under seed and compares against rate:
// the same site always lands the same way.
func coin(rate float64, seed uint64, site ...uint64) bool {
	if rate <= 0 {
		return false
	}
	h := mix(seed)
	for _, s := range site {
		h = mix(h ^ s)
	}
	return float64(h>>11)/(1<<53) < rate
}

// Fault selects which protocol violation a chaos Strategy injects.
type Fault int

const (
	// FaultUnpublish retracts already-announced blocks (PublishTo below
	// the published count).
	FaultUnpublish Fault = iota

	// FaultOverPublish announces more blocks than the private branch
	// holds (PublishTo = Ls + 1).
	FaultOverPublish

	// FaultFalseCommit commits without a strictly longer branch. It only
	// fires in frames where a commit is illegal (Ls <= Lh).
	FaultFalseCommit

	// FaultConflict returns Commit and Adopt together.
	FaultConflict

	// FaultPanic panics at the decision point with ErrInjectedPanic.
	FaultPanic
)

// String names the fault for test output and strategy names.
func (f Fault) String() string {
	switch f {
	case FaultUnpublish:
		return "unpublish"
	case FaultOverPublish:
		return "over-publish"
	case FaultFalseCommit:
		return "false-commit"
	case FaultConflict:
		return "conflict"
	case FaultPanic:
		return "panic"
	default:
		return fmt.Sprintf("fault(%d)", int(f))
	}
}

// Strategy wraps an inner strategy (nil: the paper's Algorithm 1) and
// replaces its reaction with the configured fault at a Rate fraction of
// decision points. Every injected reaction is guaranteed invalid, so a
// fired fault must surface as sim.ErrBadReaction (or, for FaultPanic, a
// recovered panic) — anything else is an engine bug.
type Strategy struct {
	// Inner is the strategy being sabotaged; nil means sim.Algorithm1.
	Inner sim.Strategy

	// Fault is the violation to inject.
	Fault Fault

	// Rate is the per-decision-point injection probability in [0, 1].
	Rate float64

	// Seed decorrelates injection sites between wrappers.
	Seed uint64
}

var _ sim.Strategy = Strategy{}

// inner resolves the sabotaged strategy.
func (c Strategy) inner() sim.Strategy {
	if c.Inner == nil {
		return sim.Algorithm1{}
	}
	return c.Inner
}

// Name implements sim.Strategy.
func (c Strategy) Name() string {
	return fmt.Sprintf("chaos:%s+%s@%g", c.inner().Name(), c.Fault, c.Rate)
}

// ReactToPool implements sim.Strategy.
func (c Strategy) ReactToPool(ls, lh, published int) sim.Reaction {
	return c.react(0, ls, lh, published, c.inner().ReactToPool)
}

// ReactToHonest implements sim.Strategy.
func (c Strategy) ReactToHonest(ls, lh, published int) sim.Reaction {
	return c.react(1, ls, lh, published, c.inner().ReactToHonest)
}

// react injects the configured fault at this decision point, or defers to
// the inner strategy.
func (c Strategy) react(point uint64, ls, lh, published int, inner func(ls, lh, published int) sim.Reaction) sim.Reaction {
	if !coin(c.Rate, c.Seed, point, uint64(ls), uint64(lh), uint64(published)) {
		return inner(ls, lh, published)
	}
	switch c.Fault {
	case FaultUnpublish:
		if published >= 2 {
			return sim.Reaction{PublishTo: published - 1}
		}
		// With under two announced blocks, retracting one is the
		// PublishTo zero-value no-op; a negative count is invalid in
		// every frame.
		return sim.Reaction{PublishTo: -1}
	case FaultOverPublish:
		return sim.Reaction{PublishTo: ls + 1}
	case FaultFalseCommit:
		if ls > lh {
			return inner(ls, lh, published) // a commit would be legal here
		}
		return sim.Reaction{Commit: true}
	case FaultConflict:
		return sim.Reaction{Commit: true, Adopt: true}
	case FaultPanic:
		panic(fmt.Errorf("%w: at decision point %d, frame (%d,%d,%d)",
			ErrInjectedPanic, point, ls, lh, published))
	default:
		return inner(ls, lh, published)
	}
}

// Injector deterministically injects failures into indexed work items —
// the worker-pool counterpart of Strategy. The zero value never fires.
type Injector struct {
	// Rate is the per-item injection probability in [0, 1].
	Rate float64

	// Seed decorrelates injection sites between injectors.
	Seed uint64

	// Panic makes fired items panic with ErrInjectedPanic instead of
	// returning ErrInjected.
	Panic bool
}

// Hit reports whether the injector fires at item i.
func (in Injector) Hit(i int) bool {
	return coin(in.Rate, in.Seed, uint64(i))
}

// Wrap decorates a parallel work function: at injected indices it returns
// ErrInjected (or panics with ErrInjectedPanic), elsewhere it runs fn
// untouched.
func Wrap[T any](in Injector, fn func(i int) (T, error)) func(i int) (T, error) {
	return func(i int) (T, error) {
		if in.Hit(i) {
			if in.Panic {
				panic(fmt.Errorf("%w: item %d", ErrInjectedPanic, i))
			}
			var zero T
			return zero, fmt.Errorf("%w: item %d", ErrInjected, i)
		}
		return fn(i)
	}
}
