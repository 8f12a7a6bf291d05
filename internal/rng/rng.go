// Package rng provides a small, deterministic pseudo-random number generator
// suite used throughout the simulator.
//
// Reproducibility is a first-class requirement for the experiments in this
// repository: a simulation run is fully determined by its seed, independent
// of Go version or platform. The package therefore implements its own
// generator (xoshiro256** seeded via splitmix64) instead of relying on
// math/rand, whose stream is not guaranteed stable across releases.
package rng

import (
	"math"
	"math/bits"
)

const (
	// goldenGamma is the splitmix64 increment (2^64 / phi, rounded to odd).
	goldenGamma = 0x9E3779B97F4A7C15

	// float64Unit converts a 53-bit integer into a float64 in [0, 1).
	float64Unit = 1.0 / (1 << 53)
)

// bufSize is the number of outputs generated per block refill. Each refill
// keeps the xoshiro state in registers for the whole block, so the
// per-output cost of the non-inlinable generator body is paid once per
// bufSize draws instead of once per draw. 128 outputs (1 KB) amortizes
// the call overhead to noise while keeping a Reseed's discarded remainder
// cheap relative to the runs (100k+ events) batch runners reseed between.
const bufSize = 128

// Source is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; create one Source per goroutine.
//
// Outputs are produced in blocks: the generator refills buf with the next
// bufSize values of the sequence at once and Uint64 pops them in order, so
// every consumer — uniform, exponential, alias-table — sees exactly the
// same stream, in exactly the same order, as the unbuffered generator
// produced. Buffering is invisible to everything but the clock.
type Source struct {
	s [4]uint64

	// anti is XORed into every Uint64 output. It is zero for a normal
	// stream and ^0 for an antithetic stream (see SetAntithetic); keeping
	// it a mask makes the antithetic transform free on the hot path. It is
	// applied at refill time (and SetAntithetic re-mirrors any unpopped
	// buffered outputs), so the pop path is a bare load.
	anti uint64

	// buf holds already-masked outputs of the sequence in reverse: the
	// next output to pop is buf[pos-1], the last buf[0]. pos == 0 means
	// empty — which is also the zero value and what Reseed leaves behind,
	// so the first pop after either refills from the fresh state. The
	// countdown form keeps the pop path (and Float64 on top of it) within
	// the compiler's inlining budget.
	buf [bufSize]uint64
	pos int
}

// New returns a Source seeded from seed via splitmix64, as recommended by the
// xoshiro authors. Distinct seeds give statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// SetAntithetic switches the Source between its normal stream and the
// antithetic mirror of that stream. The antithetic stream complements every
// Uint64 output bitwise, so each uniform Float64 draw u becomes exactly
// (1 - 2^-53) - u: the reflection of u about 1/2 on the 53-bit lattice.
// Paired runs over (seed, normal) and (seed, antithetic) therefore see
// perfectly negatively correlated uniforms, the basis of the antithetic
// variance-reduction estimator. The flag survives Reseed so a paired worker
// can be configured once and reseeded per run like any other Source.
func (r *Source) SetAntithetic(on bool) {
	var want uint64
	if on {
		want = ^uint64(0)
	}
	// Buffered outputs were masked with the old flag at refill time;
	// re-mirror the unpopped ones so a mid-stream toggle affects exactly
	// the outputs it would have affected on the unbuffered generator.
	if delta := want ^ r.anti; delta != 0 {
		for i := 0; i < r.pos; i++ {
			r.buf[i] ^= delta
		}
		r.anti = want
	}
}

// Reseed resets the generator in place to the state New(seed) produces,
// without allocating. Batch runners use it to reuse one Source per worker
// across many independently seeded runs. The antithetic flag is preserved.
// Any buffered outputs of the previous seed's sequence are discarded.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += goldenGamma
		r.s[i] = splitmix64(sm)
	}
	// xoshiro256** must not be seeded with the all-zero state; splitmix64
	// cannot produce four zero outputs from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = goldenGamma
	}
	r.pos = 0
}

// Uint64 returns the next value of the xoshiro256** sequence. It inlines
// into callers — a buffered pop on the fast path — and the block refill
// underneath is the only call into the generator body every bufSize draws.
func (r *Source) Uint64() uint64 {
	if r.pos == 0 {
		r.refill()
	}
	r.pos--
	return r.buf[r.pos]
}

// refill writes the next bufSize values of the sequence into buf, highest
// index first so countdown pops return them in sequence order. The state
// words live in locals for the whole block, which is where the batching
// wins: one load/store of the state per block instead of per draw.
func (r *Source) refill() {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	anti := r.anti
	for i := bufSize - 1; i >= 0; i-- {
		r.buf[i] = rotl(s1*5, 7)*9 ^ anti

		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	r.pos = bufSize
}

// Float64 returns a uniform value in [0, 1) with 53 random bits. It is
// Uint64's pop with the [0, 1) conversion fused in — written out rather
// than composed so that Float64, like Uint64, inlines into callers.
func (r *Source) Float64() float64 {
	if r.pos == 0 {
		r.refill()
	}
	r.pos--
	return float64(r.buf[r.pos]>>11) * float64Unit
}

// ExpUnit returns a unit-mean exponentially distributed value. It is the
// simulator's inter-arrival sampler: allocation-free, and it consumes
// exactly one generator output per draw (a fixed consumption pattern, like
// AliasTable.Draw), so enabling the time axis never perturbs how much
// randomness any other consumer of the same stream sees. Callers scale by
// the desired mean (the current difficulty) instead of dividing by a rate,
// keeping the per-event cost to one draw, one log, and one multiply.
func (r *Source) ExpUnit() float64 {
	// 1 - Float64() is in (0, 1], so Log never sees zero and the result is
	// always finite and non-negative.
	return -math.Log(1 - r.Float64())
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Negative weights are treated as zero. It panics
// if the total weight is not positive, which indicates a configuration error.
func (r *Source) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: Categorical called with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	// Floating-point round-off can leave x barely above zero after the
	// loop; return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return 0
}

// AliasTable draws from a fixed categorical distribution in O(1) per draw
// using Walker's alias method: column i is selected uniformly, then either
// accepted (probability prob[i]) or redirected to alias[i]. Construction is
// O(n); afterwards every draw costs exactly one Uint64 and one Float64
// regardless of the number of categories, whereas Categorical re-walks the
// whole weight vector on every call. The linear Categorical remains the
// distribution oracle the alias table is tested against.
//
// An AliasTable is immutable after construction and therefore safe for
// concurrent use by multiple Sources.
type AliasTable struct {
	prob  []float64
	alias []int32
}

// NewAliasTable builds the alias table for the given weights, with the same
// weight semantics as Categorical: negative weights are treated as zero, and
// it panics if the total weight is not positive. len(weights) must fit in an
// int32 (over two billion categories would exceed memory long before).
func NewAliasTable(weights []float64) *AliasTable {
	n := len(weights)
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: NewAliasTable called with non-positive total weight")
	}

	t := &AliasTable{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	// Scale weights so the average column holds exactly 1; split columns
	// into under- and over-full work lists, then repeatedly top up an
	// under-full column from an over-full one (Vose's stable variant).
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers are full columns up to floating-point round-off; a
	// zero-weight column can never be left over because its deficit is
	// always paid for by some over-full column.
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t
}

// Len returns the number of categories.
func (t *AliasTable) Len() int { return len(t.prob) }

// Draw returns an index distributed according to the table's weights. It
// consumes exactly two generator outputs: the column is chosen by a
// multiply-shift reduction of one Uint64 (bias below n/2^64, astronomically
// under simulation resolution, in exchange for a fixed consumption pattern),
// and the accept-or-alias coin is one Float64.
func (t *AliasTable) Draw(r *Source) int {
	hi, _ := bits.Mul64(r.Uint64(), uint64(len(t.prob)))
	i := int(hi)
	if r.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

// splitmix64 is the finalizer of the splitmix64 generator; it is a strong
// 64-bit mixer used for seeding.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func rotl(x uint64, k int) uint64 {
	return bits.RotateLeft64(x, k)
}
