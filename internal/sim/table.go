package sim

import (
	"reflect"
	"runtime"
	"sync"
)

// The paper's strategies — Algorithm 1 and the stubborn family around it —
// are pure functions of the race frame (Ls, Lh, published). The simulator
// exploits that by compiling each registered strategy into a DecisionTable:
// a dense reaction grid over the bounded frame window, validated once at
// compile time, so the per-event decision becomes a single table load with
// no interface dispatch and no per-event validateReaction call. The grid
// mirrors the occupancy grid's shape (a tableDim x tableDim dense core with
// the astronomically rare frames beyond it handled out of band — here by
// falling back to the live interface path rather than an overflow map).
//
// Compilation snapshots the strategy's decisions, so it is only sound for
// strategies that honor the Strategy contract's determinism requirement.
// The simulator therefore tables only strategies carrying the frameTabled
// marker — the registry families, which are pure by construction — and
// consults adversarial or stateful test strategies live, exactly as before.

// tableDim is the side length of each decision grid, mirroring occDim:
// frames with ls or lh at or beyond it occur only in races longer than the
// reference window and take the interface path instead.
const tableDim = occDim

// Table entries encode a validated Reaction in one signed byte: positive
// values are PublishTo counts (at most tableDim-1, so they fit), zero is
// the keep-mining no-op, and the negative values are the singular moves. An
// entry the compile-time validation rejected is stored as tableInvalid and
// the event that reaches it replays the live strategy call, so a misbehaving
// strategy still fails at the same event with the same error it always
// produced.
const (
	tableKeep    = 0
	tableAdopt   = -1
	tableCommit  = -2
	tableInvalid = -3
)

// DecisionTable is a strategy compiled into dense per-frame reaction grids.
// It is immutable after compilation and safe for concurrent use by any
// number of simulation workers; the simulator shares one table per distinct
// strategy value through a process-wide cache.
type DecisionTable struct {
	strat Strategy

	// pool and honest hold the encoded reactions of the two decision
	// points, indexed (ls*tableDim + lh)*tableDim + published.
	pool   []int8
	honest []int8

	// adoptsAtOrigin records whether the honest reaction at the (0, 1, 0)
	// frame is a plain, valid adopt — the premise of the plain loop's
	// race-origin fast path (see simulator.originFast), precomputed so
	// the engine reads a table property instead of calling the strategy.
	adoptsAtOrigin bool
}

// Compile-time proof that a DecisionTable can stand in for its strategy.
var _ Strategy = (*DecisionTable)(nil)

// frameTabled marks a Strategy as a pure function of its race frame,
// eligible for decision-table compilation. It is deliberately unexported:
// every registry family is pure by construction and carries the marker;
// ad-hoc strategies (the chaos suite's adversarial reactors, stateful test
// doubles) cannot, so they keep the live interface path their semantics
// depend on.
type frameTabled interface{ frameTabled() }

func (Algorithm1) frameTabled()     {}
func (HonestStrategy) frameTabled() {}
func (EagerPublish) frameTabled()   {}
func (Stubborn) frameTabled()       {}

// tableCache shares compiled tables across runs and workers, keyed by the
// strategy value itself. Registry strategies are small comparable structs,
// so two pools running stubborn:trail=2 — in the same run or in parallel
// workers — resolve to the same table. Each key holds a *tableEntry whose
// sync.Once runs the compile, so a strategy's ~0.5 MiB grid pair is
// compiled exactly once per process: workers that reach a cold key together
// wait for the one compile instead of racing duplicates of it. (A compile
// that panics caches nothing; each later call compiles and panics again.)
var tableCache sync.Map

// tableEntry is one tableCache slot: t is set once, under once.
type tableEntry struct {
	once sync.Once
	t    *DecisionTable
}

// tableFor returns the shared compiled table for st, or nil when st is not
// eligible (no purity marker, or a dynamic type that cannot serve as a
// cache key).
func tableFor(st Strategy) *DecisionTable {
	if _, ok := st.(frameTabled); !ok {
		return nil
	}
	if !reflect.TypeOf(st).Comparable() {
		// Cannot key the cache (and equality is how sharing works);
		// compiling per call would cost more than it saves.
		return nil
	}
	v, ok := tableCache.Load(st)
	if !ok {
		v, _ = tableCache.LoadOrStore(st, new(tableEntry))
	}
	e := v.(*tableEntry)
	e.once.Do(func() { e.t = CompileDecisionTable(st) })
	if e.t == nil {
		// The compile panicked, which still spends the Once. Compile
		// again so this caller gets the strategy's panic too, instead of
		// a nil table that would quietly run st on the live path.
		return CompileDecisionTable(st)
	}
	return e.t
}

// WarmDecisionTables compiles (and caches) the decision tables for every
// eligible strategy in the list. The experiment engine calls it once per
// job before fanning runs across workers, so no worker pays the one-time
// compile inside its timed hot loop. Nil and ineligible entries are
// skipped.
func WarmDecisionTables(strategies []Strategy) {
	for _, st := range strategies {
		if st != nil {
			tableFor(st)
		}
	}
}

// CompileDecisionTable compiles st into a DecisionTable by consulting it
// once at every frame of the bounded window and validating every reaction
// with the same rules validateReaction enforces. Reactions the rules reject
// are stored as an invalid marker that routes the frame back to the live
// strategy call, so compilation itself never fails — errors keep surfacing
// at the event that reaches the offending frame. The caller is responsible
// for only compiling strategies that are deterministic functions of their
// frame, as the Strategy contract requires.
//
// The window is split across runtime.GOMAXPROCS(0) workers, so st is
// consulted from several goroutines at once; a pure frame function allows
// that. The table is the same at any worker count. A panic in st is
// raised on the caller's goroutine once every worker has stopped: natively
// when it hit the caller's own share of the window, and otherwise
// recovered in the worker and raised again with the same value, so the
// stack it carries is the caller's, not the strategy frame that panicked.
func CompileDecisionTable(st Strategy) *DecisionTable {
	t := &DecisionTable{
		strat:  st,
		pool:   make([]int8, tableDim*tableDim*tableDim),
		honest: make([]int8, tableDim*tableDim*tableDim),
	}
	workers := min(runtime.GOMAXPROCS(0), tableDim)
	var (
		wg        sync.WaitGroup
		first     sync.Once
		panicWith any // the first worker panic; recover never yields nil for one
	)
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					first.Do(func() { panicWith = r })
				}
			}()
			t.compileSlabs(w, workers)
		}()
	}
	// The caller compiles share 0 itself, so at GOMAXPROCS 1 no goroutine
	// starts, and a panic there unwinds with its own stack once the other
	// workers have stopped.
	func() {
		defer wg.Wait()
		t.compileSlabs(0, workers)
	}()
	if panicWith != nil {
		panic(panicWith)
	}
	t.adoptsAtOrigin = t.honest[(0*tableDim+1)*tableDim+0] == tableAdopt
	return t
}

// compileSlabs fills the ls slabs first, first+stride, ... of both grids.
// Interleaved slabs give every worker the same mix of shallow and deep
// frames, so the workers' shares cost about the same; the slabs are
// disjoint, so workers write without synchronization.
func (t *DecisionTable) compileSlabs(first, stride int) {
	st := t.strat
	for ls := first; ls < tableDim; ls += stride {
		for lh := 0; lh < tableDim; lh++ {
			base := (ls*tableDim + lh) * tableDim
			// Frames with published > ls are unreachable (a pool can
			// only announce blocks it has), but the grid is dense, so
			// encode them too: encodeReaction stores the invalid marker
			// wherever validation fails.
			for published := 0; published < tableDim; published++ {
				t.pool[base+published] = encodeReaction(
					st.ReactToPool(ls, lh, published), ls, lh, published)
				t.honest[base+published] = encodeReaction(
					st.ReactToHonest(ls, lh, published), ls, lh, published)
			}
		}
	}
}

// encodeReaction maps a validated reaction to its table entry, or to
// tableInvalid when validation rejects it. The decode precedence (adopt,
// then commit, then publish) matches applyReaction's, so the encoded entry
// reproduces exactly the state change the live reaction would have caused.
func encodeReaction(r Reaction, ls, lh, published int) int8 {
	if !reactionAllowed(r, ls, lh, published) {
		return tableInvalid
	}
	switch {
	case r.Adopt:
		return tableAdopt
	case r.Commit:
		return tableCommit
	default:
		// PublishTo <= ls < tableDim, so the count always fits the
		// entry byte.
		return int8(r.PublishTo)
	}
}

// entryAt looks up the encoded reaction for a frame in the given grid,
// reporting ok=false for frames outside the dense window (the caller falls
// back to the live strategy). The unsigned casts reject negative lh (which
// the race invariants rule out anyway) together with the overflow check.
func entryAt(grid []int8, ls, lh, published int) (int8, bool) {
	if uint(ls) >= tableDim || uint(lh) >= tableDim {
		return 0, false
	}
	// published <= ls holds for every reachable frame (validateReaction
	// rejects announcing more blocks than exist), so the index is in
	// range; guard anyway so a hand-built frame cannot read out of
	// bounds.
	if uint(published) >= tableDim {
		return 0, false
	}
	return grid[(ls*tableDim+lh)*tableDim+published], true
}

// decodeReaction expands a valid table entry back into the Reaction it
// encodes.
func decodeReaction(e int8) Reaction {
	switch e {
	case tableAdopt:
		return Reaction{Adopt: true}
	case tableCommit:
		return Reaction{Commit: true}
	default:
		return Reaction{PublishTo: int(e)}
	}
}

// Name implements Strategy.
func (t *DecisionTable) Name() string { return t.strat.Name() }

// ReactToPool implements Strategy: a table load inside the window, the live
// strategy beyond it or at frames whose compiled reaction was invalid.
func (t *DecisionTable) ReactToPool(ls, lh, published int) Reaction {
	if e, ok := entryAt(t.pool, ls, lh, published); ok && e != tableInvalid {
		return decodeReaction(e)
	}
	return t.strat.ReactToPool(ls, lh, published)
}

// ReactToHonest implements Strategy: a table load inside the window, the
// live strategy beyond it or at frames whose compiled reaction was invalid.
func (t *DecisionTable) ReactToHonest(ls, lh, published int) Reaction {
	if e, ok := entryAt(t.honest, ls, lh, published); ok && e != tableInvalid {
		return decodeReaction(e)
	}
	return t.strat.ReactToHonest(ls, lh, published)
}
