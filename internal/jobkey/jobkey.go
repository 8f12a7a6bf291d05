// Package jobkey is the canonical identity of one simulation: a
// content-addressed encoding of everything that can change a run's result,
// and nothing that cannot. It is the single encoder behind the experiments
// engine's deduplication, seeding, and result-cache row addresses, so they
// can never diverge on what "the same simulation" means.
//
// Three identities are derived here, all from the same streamed encoding:
//
//   - Key (ForConfig) addresses one fully resolved sim.Config at a fixed
//     run length: population, gamma, reward schedule, uncle cap, strategy
//     assignment, time/difficulty regime, and the statistical mode
//     (fast-forward, antithetic). Fields the simulator guarantees
//     result-neutral — Parallelism and Audit — are excluded, as is Seed,
//     which joins per run via Key.Row.
//   - Key.Row joins a Key with one exact run seed: the content address of
//     one (config, seed) row. By determinism invariant 3 a row is a pure
//     function of its address, which is what makes cached rows exact.
//   - SeedBase derives a grid point's stream-family base seed from the
//     sweep seed and the point's environment only — population, gamma,
//     schedule, uncle cap, uncle-reference policy. Candidates evaluated at
//     the same point (different strategies, difficulty rules, run lengths,
//     or statistical modes) deliberately share the family, so sweeps that
//     compare them are paired comparisons over identical event streams —
//     and so a point cached by one sweep is addressable by any other sweep
//     containing it.
//
// The encoding canonicalizes exactly as the simulator defaults: a
// zero-value schedule hashes as Ethereum and a nil strategy as Algorithm 1,
// so a defaulted and an explicit config share an address exactly when they
// share results. Every primitive is length- or tag-prefixed, so adjacent
// fields can never alias.
package jobkey

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"

	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// Key is the canonical content address of one resolved simulation
// configuration (run seed excluded; see Row).
type Key [sha256.Size]byte

// String returns the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ForConfig computes the canonical key of a fully resolved configuration.
// The config must carry its final Population and Blocks (the engine
// resolves both before keying); Seed, Parallelism, and Audit are ignored —
// the first joins per run via Row, the others cannot change results.
func ForConfig(cfg sim.Config) Key {
	w := getWriter()
	w.Str("ethselfish-job-v1")
	writeConfig(w, &cfg)
	return putWriter(w)
}

// Row joins the config key with one exact run seed: the content address of
// a single (config, seed) row, the unit the result cache stores.
func (k Key) Row(seed uint64) Key {
	w := getWriter()
	w.Str("ethselfish-row-v1")
	w.Bytes(k[:])
	w.U64(seed)
	return putWriter(w)
}

// SeedBase derives the stream-family base seed of one grid point from the
// sweep seed and the point's environment: population, gamma, schedule,
// uncle cap, and uncle-reference policy. Strategy assignment, run length,
// time/difficulty configuration, and the statistical modes are deliberately
// excluded — candidates compared at one point share its streams (paired
// comparisons), and a point keeps its seeds across any sweep that contains
// it (cross-sweep cache reuse). Hashing the environment's exact float bits
// replaces the old alpha*1e6 truncation, under which distinct grid points
// closer than 1e-6 silently shared a family.
func SeedBase(sweepSeed uint64, cfg sim.Config) uint64 {
	w := getWriter()
	w.Str("ethselfish-seedbase-v1")
	w.U64(sweepSeed)
	w.F64(cfg.Gamma)
	w.U64(uint64(cfg.MaxUnclesPerBlock))
	w.Bool(cfg.PoolOmitsUncleRefs)
	writeSchedule(w, cfg.Schedule)
	writePopulation(w, cfg.Population)
	sum := putWriter(w)
	return binary.LittleEndian.Uint64(sum[:8])
}

// steadyDefinition tags timed addresses with the Steady window's boundary
// rule (sim.Result.Steady): the settled chain above the consensus floor
// recorded at event Blocks/2.
const steadyDefinition = "steady=midpoint-floor"

// writeConfig streams every result-relevant field of a resolved config.
// The field-coverage test in this package enumerates sim.Config by
// reflection, so adding a config field fails tests until it is either
// encoded here or explicitly recorded as result-neutral.
func writeConfig(w *writer, cfg *sim.Config) {
	w.U64(uint64(cfg.Blocks))
	w.F64(cfg.Gamma)
	w.U64(uint64(cfg.MaxUnclesPerBlock))
	w.Bool(cfg.PoolOmitsUncleRefs)
	// The statistical modes change which draws a run consumes, so each
	// separates the address space.
	w.Bool(cfg.FastForward)
	w.Bool(cfg.Antithetic)
	// The slot of the retired settlement-mode flag: always false, so
	// timeless addresses stay byte-identical to those cached while the
	// flag existed.
	w.Bool(false)
	w.Bool(cfg.Time.Enabled)
	if cfg.Time.Enabled {
		// The Steady window's definition. Timed rows cached under an
		// earlier boundary carry a different Steady, so each definition
		// gets its own address space.
		w.Str(steadyDefinition)
		d := cfg.Time.Difficulty
		w.U64(uint64(d.Rule))
		w.F64(d.TargetRate)
		w.U64(uint64(d.Epoch))
		w.F64(d.Initial)
	}
	writeSchedule(w, cfg.Schedule)
	writePopulation(w, cfg.Population)
	writeStrategies(w, cfg)
}

// writeSchedule hashes the reward schedule: its name and depth plus probed
// reward values, so two same-named schedules with different payouts cannot
// collide. The zero schedule hashes as Ethereum, mirroring the simulator's
// default.
func writeSchedule(w *writer, sched rewards.Schedule) {
	if sched.MaxDepth() == 0 {
		sched = rewards.Ethereum()
	}
	w.Str(sched.Name())
	w.U64(uint64(sched.MaxDepth()))
	probe := sched.MaxDepth()
	if probe > 8 {
		probe = 8
	}
	for d := 1; d <= probe; d++ {
		w.F64(sched.Uncle(d))
		w.F64(sched.Nephew(d))
	}
}

// writePopulation hashes the miner set: count, and each miner's ID, power,
// and pool label.
func writePopulation(w *writer, pop *mining.Population) {
	w.U64(uint64(pop.Len()))
	for i := 0; i < pop.Len(); i++ {
		m := pop.Miner(i)
		w.U64(uint64(m.ID))
		w.F64(m.Power)
		w.U64(uint64(m.Pool))
	}
}

// writeStrategies hashes the resolved per-pool strategy names
// (Strategy.Name returns the canonical registry spec, so equal names mean
// equal behavior). A nil assignment hashes as the simulator's default —
// Algorithm 1 everywhere — so a defaulted config and an explicit
// [algorithm1] share an address.
func writeStrategies(w *writer, cfg *sim.Config) {
	if cfg.Strategies != nil {
		w.U64(uint64(len(cfg.Strategies)))
		for _, s := range cfg.Strategies {
			w.Str(s.Name())
		}
		return
	}
	w.U64(1)
	if cfg.Strategy != nil {
		w.Str(cfg.Strategy.Name())
	} else {
		w.Str(sim.Algorithm1{}.Name())
	}
}

// writer streams length-prefixed primitives into a running hash, so
// adjacent fields can never alias each other. Primitives accumulate in a
// fixed chunk flushed to the digest in bulk — the digest sees the same byte
// stream either way, so buffering can never change an address — which
// keeps the per-field cost to a couple of stores instead of an interface
// call.
type writer struct {
	h     hash.Hash
	n     int
	chunk [192]byte
	sum   [sha256.Size]byte
}

// writerPool recycles writers (and their sha256 states) across the
// package's own key derivations, which run once per row on the result
// cache's hot path.
var writerPool = sync.Pool{New: func() any { return &writer{h: sha256.New()} }}

func getWriter() *writer {
	w := writerPool.Get().(*writer)
	w.h.Reset()
	w.n = 0
	return w
}

// putWriter finalizes the key and returns the writer to the pool.
func putWriter(w *writer) Key {
	k := w.Sum()
	writerPool.Put(w)
	return k
}

// flush drains the chunk into the digest.
func (w *writer) flush() {
	if w.n > 0 {
		w.h.Write(w.chunk[:w.n])
		w.n = 0
	}
}

// U64 writes one little-endian uint64.
func (w *writer) U64(v uint64) {
	if w.n+8 > len(w.chunk) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.chunk[w.n:], v)
	w.n += 8
}

// F64 writes a float64 by exact bit pattern.
func (w *writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a boolean as 0 or 1.
func (w *writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// Str writes a length-prefixed string.
func (w *writer) Str(s string) {
	w.U64(uint64(len(s)))
	for len(s) > 0 {
		if w.n == len(w.chunk) {
			w.flush()
		}
		c := copy(w.chunk[w.n:], s)
		w.n += c
		s = s[c:]
	}
}

// Bytes writes a length-prefixed byte slice.
func (w *writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	for len(b) > 0 {
		if w.n == len(w.chunk) {
			w.flush()
		}
		c := copy(w.chunk[w.n:], b)
		w.n += c
		b = b[c:]
	}
}

// Sum returns the accumulated digest as a Key.
func (w *writer) Sum() Key {
	w.flush()
	w.h.Sum(w.sum[:0])
	return Key(w.sum)
}
