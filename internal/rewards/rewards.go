// Package rewards defines the block-reward schedules studied in the paper:
// the static (regular-block) reward, the distance-dependent uncle reward
// Ku(l), and the nephew reward Kn(l) paid to a regular block for referencing
// an uncle at distance l.
//
// All rewards are expressed as fractions of the static reward Ks, which is
// normalized to 1 exactly as in the paper (Sec. III-B). A Schedule also
// carries the maximum distance at which an uncle may be referenced at all:
// in Ethereum an uncle deeper than 6 generations cannot be included by any
// nephew, so it earns nothing and does not count toward uncle-rate-aware
// difficulty adjustment.
package rewards

import (
	"errors"
	"fmt"
	"math"
)

// NoDepthLimit makes a schedule reference uncles at any distance, matching
// the paper's "fixed value regardless of the distance" variants in Fig. 9.
const NoDepthLimit = math.MaxInt32

// EthereumMaxUncleDepth is the deepest generation gap at which Ethereum
// allows an uncle to be referenced.
const EthereumMaxUncleDepth = 6

// EthereumNephewReward is Ethereum's nephew reward, 1/32 of the static
// reward per referenced uncle.
const EthereumNephewReward = 1.0 / 32

var errNonFinite = errors.New("rewards: reward values must be finite and non-negative")

// tableDepth caps the pre-expanded Ku/Kn lookup tables. Settlement only
// consults distances within the simulator's reference window (64), so every
// hot-path lookup is a slice index; deeper distances of an unbounded
// schedule fall back to the defining functions.
const tableDepth = 64

// Schedule is a complete reward specification.
type Schedule struct {
	name string

	// uncle returns Ku(l) for distance l >= 1; only consulted for
	// l <= maxDepth.
	uncle func(distance int) float64

	// nephew returns Kn(l) for distance l >= 1; only consulted for
	// l <= maxDepth.
	nephew func(distance int) float64

	// maxDepth is the largest distance at which a reference is allowed.
	maxDepth int

	// ku and kn pre-expand the uncle and nephew functions over distances
	// 1..min(maxDepth, tableDepth) (index 0 unused), so settlement pays a
	// slice index instead of a closure call per reference. Built once by
	// every constructor; shared, immutable.
	ku, kn []float64
}

// buildTables fills the Ku/Kn lookup tables from the defining functions.
func (s *Schedule) buildTables() {
	depth := s.maxDepth
	if depth > tableDepth {
		depth = tableDepth
	}
	s.ku = make([]float64, depth+1)
	s.kn = make([]float64, depth+1)
	for l := 1; l <= depth; l++ {
		s.ku[l] = s.uncle(l)
		s.kn[l] = s.nephew(l)
	}
}

// NewSchedule builds a custom schedule from arbitrary Ku and Kn functions,
// as permitted by Remarks 6 and 7 of the paper. maxDepth bounds the
// referenceable distance (use NoDepthLimit for unbounded). It returns an
// error if either function yields a negative or non-finite value at any
// probed distance (1..min(maxDepth, 64)).
func NewSchedule(name string, uncle, nephew func(int) float64, maxDepth int) (Schedule, error) {
	if uncle == nil || nephew == nil {
		return Schedule{}, errors.New("rewards: uncle and nephew functions are required")
	}
	if maxDepth < 1 {
		return Schedule{}, fmt.Errorf("rewards: maxDepth %d must be >= 1", maxDepth)
	}
	probe := maxDepth
	if probe > 64 {
		probe = 64
	}
	for l := 1; l <= probe; l++ {
		for _, v := range [2]float64{uncle(l), nephew(l)} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return Schedule{}, fmt.Errorf("at distance %d: value %v: %w", l, v, errNonFinite)
			}
		}
	}
	s := Schedule{name: name, uncle: uncle, nephew: nephew, maxDepth: maxDepth}
	s.buildTables()
	return s, nil
}

// ethereumSchedule is built once; Ethereum() is called per simulation run,
// so the returned value must share prebuilt tables instead of re-expanding
// them.
var ethereumSchedule = func() Schedule {
	s := Schedule{
		name: "ethereum",
		uncle: func(l int) float64 {
			if l < 1 || l > EthereumMaxUncleDepth {
				return 0
			}
			return float64(8-l) / 8
		},
		nephew:   func(int) float64 { return EthereumNephewReward },
		maxDepth: EthereumMaxUncleDepth,
	}
	s.buildTables()
	return s
}()

// Ethereum returns the Byzantium-era schedule used throughout the paper's
// evaluation: Ku(l) = (8-l)/8 for 1 <= l <= 6 and 0 beyond, Kn = 1/32.
func Ethereum() Schedule {
	return ethereumSchedule
}

// Constant returns a schedule paying a fixed uncle reward ku at every
// referenceable distance, with Ethereum's 1/32 nephew reward. The paper uses
// these (ku in 2/8..7/8, unbounded depth) in Fig. 9 and, with depth 6, for
// the Sec. VI redesign.
func Constant(ku float64, maxDepth int) (Schedule, error) {
	return NewSchedule(
		fmt.Sprintf("constant-ku=%g", ku),
		func(int) float64 { return ku },
		func(int) float64 { return EthereumNephewReward },
		maxDepth,
	)
}

// bitcoinSchedule is built once, like ethereumSchedule.
var bitcoinSchedule = func() Schedule {
	s := Schedule{
		name:     "bitcoin",
		uncle:    func(int) float64 { return 0 },
		nephew:   func(int) float64 { return 0 },
		maxDepth: 1,
	}
	s.buildTables()
	return s
}()

// Bitcoin returns the degenerate schedule with no uncle or nephew rewards;
// under it the Ethereum model reduces to Eyal-Sirer's static-reward
// analysis (Remark 4).
func Bitcoin() Schedule {
	return bitcoinSchedule
}

// Name returns a short identifier for the schedule.
func (s Schedule) Name() string { return s.name }

// MaxDepth returns the largest referenceable uncle distance.
func (s Schedule) MaxDepth() int { return s.maxDepth }

// Referenceable reports whether an uncle at the given distance may be
// referenced by a nephew at all.
func (s Schedule) Referenceable(distance int) bool {
	return distance >= 1 && distance <= s.maxDepth
}

// Uncle returns Ku(distance), the reward earned by an uncle block referenced
// at the given distance, as a fraction of the static reward. It is zero for
// non-referenceable distances. Distances within the lookup table (all of
// them, unless the schedule is deeper than 64) cost a slice index.
func (s Schedule) Uncle(distance int) float64 {
	if !s.Referenceable(distance) {
		return 0
	}
	if distance < len(s.ku) {
		return s.ku[distance]
	}
	return s.uncle(distance)
}

// Nephew returns Kn(distance), the reward earned by a regular block for
// referencing an uncle at the given distance. It is zero for
// non-referenceable distances.
func (s Schedule) Nephew(distance int) float64 {
	if !s.Referenceable(distance) {
		return 0
	}
	if distance < len(s.kn) {
		return s.kn[distance]
	}
	return s.nephew(distance)
}

// String implements fmt.Stringer.
func (s Schedule) String() string {
	return fmt.Sprintf("schedule(%s, maxDepth=%d)", s.name, s.maxDepth)
}
