// Package mining models the PoW block-production process. Following
// Sec. III-A of the paper, mining is a series of Bernoulli trials whose
// success probability is small enough that block production is a Poisson
// process: the i-th miner with hash-power fraction m_i produces blocks at
// rate f*m_i. After rescaling time by the total rate f, the winner of each
// block event is simply a categorical draw weighted by hash power, and
// inter-arrival times are Exp(1).
//
// Miners carry a pool label: pool 0 is the honest crowd, pools 1..K are
// colluding groups that may each run their own (selfish) strategy. The
// paper's single-pool setting is the K = 1 special case.
package mining

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/rng"
)

// Errors returned by population constructors.
var (
	// ErrNoMiners is returned for an empty population.
	ErrNoMiners = errors.New("mining: population has no miners")

	// ErrBadPower is returned when a miner's hash power is not a
	// positive finite number.
	ErrBadPower = errors.New("mining: miner hash power must be positive")

	// ErrBadID is returned when a miner's ID is negative or too sparse
	// for the population. IDs index the dense per-miner structures used
	// by sampling and reward settlement, so they must be non-negative
	// and roughly dense (the reserved genesis ID is 0 and populations
	// conventionally use 1..n); a huge sparse ID would silently turn
	// O(n) construction into an O(maxID) allocation.
	ErrBadID = errors.New("mining: miner ID negative or too sparse for the population")

	// ErrBadPool is returned when a miner's pool label is negative or
	// exceeds the number of miners (pool labels index dense per-pool
	// structures; a population cannot have more non-empty pools than
	// miners).
	ErrBadPool = errors.New("mining: pool label negative or too large for the population")
)

// maxIDSlack bounds how sparse miner IDs may be: the largest ID must stay
// below maxIDSlack*len(miners) + maxIDSlack.
const maxIDSlack = 64

// PoolID labels a group of colluding miners. Pool 0 is the honest crowd;
// pools 1..K are the competing (potentially selfish) pools.
type PoolID int

// HonestPool is the pool label of protocol-following miners.
const HonestPool PoolID = 0

// Miner describes one participant.
type Miner struct {
	// ID is the miner's identifier, used for reward attribution.
	ID chain.MinerID

	// Power is the miner's hash power. Powers are relative weights;
	// the population normalizes them.
	Power float64

	// Pool is the miner's pool label: 0 (HonestPool) for the honest
	// crowd, 1..K for members of a colluding pool.
	Pool PoolID
}

// Population is a fixed set of miners with normalized hash powers. The
// dense pool index is precomputed at construction; the sampling structure
// (the Walker alias table) is built once on first draw, so sweeps whose
// every job is served from the result cache never pay for it. Sampling and
// pool lookups cost O(1) regardless of population size. A Population is
// logically immutable and safe for concurrent use (each Source must still
// be goroutine-local).
type Population struct {
	miners  []Miner
	weights []float64
	alpha   float64

	// poolByID indexes the pool label by MinerID (dense; unknown IDs are
	// honest), replacing the per-run membership map the simulator used to
	// rebuild from the miner list.
	poolByID []PoolID

	// numPools is the largest pool label.
	numPools int

	// alias is the lazily built Walker alias table over every miner's
	// weight: it is published once with an atomic store, so concurrent
	// first draws are safe, and every later draw is one atomic load (a
	// plain load on mainstream architectures). Deferring the build keeps
	// fully cached sweeps — which construct populations only to address
	// results — from building a table they never draw from.
	alias     atomic.Pointer[rng.AliasTable]
	aliasOnce sync.Once
}

// sampler returns the population's alias table, building it on first use.
// The built path is a single atomic load, small enough to inline into every
// draw.
func (p *Population) sampler() *rng.AliasTable {
	if a := p.alias.Load(); a != nil {
		return a
	}
	return p.buildSampler()
}

// buildSampler is the cold first-draw path behind sampler.
func (p *Population) buildSampler() *rng.AliasTable {
	p.aliasOnce.Do(func() {
		p.alias.Store(rng.NewAliasTable(p.weights))
	})
	return p.alias.Load()
}

// NewPopulation validates and normalizes the miner set. Miner IDs must be
// unique and non-negative; pool labels must be non-negative and no larger
// than the miner count. The fraction of selfish power (alpha) is the total
// normalized power of all pools with label >= 1.
func NewPopulation(miners []Miner) (*Population, error) {
	if len(miners) == 0 {
		return nil, ErrNoMiners
	}
	var total float64
	maxID := chain.MinerID(0)
	maxPool := HonestPool
	for _, m := range miners {
		if !(m.Power > 0) || m.Power > 1e18 {
			return nil, fmt.Errorf("miner %d power %v: %w", m.ID, m.Power, ErrBadPower)
		}
		if m.ID < 0 || int(m.ID) > maxIDSlack*(len(miners)+1) {
			return nil, fmt.Errorf("miner ID %d (population of %d): %w", m.ID, len(miners), ErrBadID)
		}
		if m.Pool < 0 || int(m.Pool) > len(miners) {
			return nil, fmt.Errorf("miner %d pool %d (population of %d): %w",
				m.ID, m.Pool, len(miners), ErrBadPool)
		}
		if m.ID > maxID {
			maxID = m.ID
		}
		if m.Pool > maxPool {
			maxPool = m.Pool
		}
		total += m.Power
	}
	// Duplicate detection over a dense bitmap: IDs were already bounds-
	// checked above, and the small-population case (every aggregate-agent
	// sweep) stays on the stack.
	var seenArr [128]bool
	seen := seenArr[:]
	if int(maxID) >= len(seenArr) {
		seen = make([]bool, maxID+1)
	}
	for _, m := range miners {
		if seen[m.ID] {
			return nil, fmt.Errorf("mining: duplicate miner ID %d", m.ID)
		}
		seen[m.ID] = true
	}
	p := &Population{
		miners:   append([]Miner(nil), miners...),
		weights:  make([]float64, len(miners)),
		poolByID: make([]PoolID, maxID+1),
		numPools: int(maxPool),
	}
	for i, m := range miners {
		p.weights[i] = m.Power / total
		if m.Pool != HonestPool {
			p.alpha += p.weights[i]
		}
		p.poolByID[m.ID] = m.Pool
	}
	return p, nil
}

// Equal builds the paper's simulation population: n miners with identical
// block-generation rates, the first selfishCount of them forming one
// selfish pool (Sec. V: n = 1000, selfishCount <= 450). Miner IDs are
// 1..n; ID 0 is reserved for the genesis block.
func Equal(n, selfishCount int) (*Population, error) {
	if n <= 0 {
		return nil, ErrNoMiners
	}
	if selfishCount < 0 || selfishCount > n {
		return nil, fmt.Errorf("mining: selfish count %d out of [0, %d]", selfishCount, n)
	}
	return EqualPools(n, selfishCount)
}

// EqualPools builds n equal-rate miners partitioned into len(poolSizes)
// colluding pools: the first poolSizes[0] miners form pool 1, the next
// poolSizes[1] form pool 2, and so on; the remainder is honest. Miner IDs
// are 1..n.
func EqualPools(n int, poolSizes ...int) (*Population, error) {
	if n <= 0 {
		return nil, ErrNoMiners
	}
	assigned := 0
	for p, size := range poolSizes {
		if size < 0 {
			return nil, fmt.Errorf("mining: pool %d size %d negative: %w", p+1, size, ErrBadPool)
		}
		assigned += size
	}
	if assigned > n {
		return nil, fmt.Errorf("mining: pool sizes total %d exceed population %d: %w",
			assigned, n, ErrBadPool)
	}
	miners := make([]Miner, n)
	pool, used := PoolID(1), 0
	for i := range miners {
		for int(pool) <= len(poolSizes) && used == poolSizes[pool-1] {
			pool++
			used = 0
		}
		label := HonestPool
		if int(pool) <= len(poolSizes) {
			label = pool
			used++
		}
		miners[i] = Miner{
			ID:    chain.MinerID(i + 1),
			Power: 1,
			Pool:  label,
		}
	}
	return NewPopulation(miners)
}

// TwoAgent builds the aggregate two-miner population used by the analysis:
// one selfish pool with power alpha and one honest aggregate with power
// 1-alpha. alpha must lie in (0, 1).
func TwoAgent(alpha float64) (*Population, error) {
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("mining: alpha %v out of (0, 1)", alpha)
	}
	return MultiAgent(alpha)
}

// MultiAgent builds the aggregate (K+1)-miner population for K competing
// pools: pool i (1-based) is one agent with power alphas[i-1], and the
// honest crowd is one agent with the remaining power. Each alpha must be
// positive and the total must stay below 1. Miner IDs are 1..K for the
// pools and K+1 for the honest aggregate.
func MultiAgent(alphas ...float64) (*Population, error) {
	if len(alphas) == 0 {
		return nil, ErrNoMiners
	}
	var total float64
	miners := make([]Miner, 0, len(alphas)+1)
	for i, alpha := range alphas {
		if !(alpha > 0) {
			return nil, fmt.Errorf("mining: pool %d alpha %v not positive: %w", i+1, alpha, ErrBadPower)
		}
		total += alpha
		miners = append(miners, Miner{
			ID:    chain.MinerID(i + 1),
			Power: alpha,
			Pool:  PoolID(i + 1),
		})
	}
	if !(total < 1) {
		return nil, fmt.Errorf("mining: pool alphas total %v must stay below 1: %w", total, ErrBadPower)
	}
	miners = append(miners, Miner{ID: chain.MinerID(len(alphas) + 1), Power: 1 - total})
	return NewPopulation(miners)
}

// Len returns the number of miners.
func (p *Population) Len() int { return len(p.miners) }

// Alpha returns the total selfish hash-power fraction (all pools >= 1).
func (p *Population) Alpha() float64 { return p.alpha }

// NumPools returns the largest pool label in the population — the K of the
// K-pool race. Zero means everyone is honest.
func (p *Population) NumPools() int { return p.numPools }

// PoolOf returns the pool label of the miner with the given ID. Unknown IDs
// (including the reserved genesis ID) are honest. It is an O(1) index
// lookup, safe for per-block use.
func (p *Population) PoolOf(id chain.MinerID) PoolID {
	if id < 0 || int(id) >= len(p.poolByID) {
		return HonestPool
	}
	return p.poolByID[id]
}

// Miner returns the i-th miner (0-based) with its normalized power.
func (p *Population) Miner(i int) Miner {
	m := p.miners[i]
	m.Power = p.weights[i]
	return m
}

// IsSelfish reports whether the miner with the given ID belongs to any
// colluding pool. Unknown IDs are honest.
func (p *Population) IsSelfish(id chain.MinerID) bool {
	return p.PoolOf(id) != HonestPool
}

// Sample draws the producer of the next block, weighted by hash power. The
// draw uses the alias table: O(1) per event independent of the population
// size, consuming exactly two generator outputs.
func (p *Population) Sample(r *rng.Source) Miner {
	return p.miners[p.sampler().Draw(r)]
}

// PoolShare is one entry of the 2018 Ethereum mining-pool snapshot.
type PoolShare struct {
	Name  string
	Share float64 // fraction of total hash power
}

// Ethereum2018Pools returns the top-5 pool hash-power distribution of
// Fig. 6 (etherscan snapshot, September 2018).
func Ethereum2018Pools() []PoolShare {
	return []PoolShare{
		{Name: "Ethermine", Share: 0.2634},
		{Name: "SparkPool", Share: 0.2246},
		{Name: "F2Pool", Share: 0.1337},
		{Name: "Nanopool", Share: 0.1033},
		{Name: "MiningPoolHub", Share: 0.0878},
		{Name: "Others", Share: 0.1872},
	}
}
