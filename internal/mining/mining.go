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
// query structures (the dense pool index, per-pool power sums, per-pool
// member lists) are precomputed at construction; the sampling structures
// (the Walker alias tables) are built once on first draw, so sweeps whose
// every job is served from the result cache never pay for them. Sampling,
// pool lookups, and pool-conditional sampling all cost O(1) regardless of
// population size. A Population is logically immutable and safe for
// concurrent use (each Source must still be goroutine-local).
type Population struct {
	miners  []Miner
	weights []float64
	alpha   float64

	// poolByID indexes the pool label by MinerID (dense; unknown IDs are
	// honest), replacing the per-run membership map the simulator used to
	// rebuild from the miner list.
	poolByID []PoolID

	// poolPower[p] is the total normalized hash power of pool p; index 0
	// is the honest crowd.
	poolPower []float64

	// poolMembers[p] lists the miner indices of pool p in input order —
	// the dense member index backing SoleMember and the per-pool alias
	// tables.
	poolMembers [][]int32

	// selfishMembers lists the miner indices of every pool >= 1 in input
	// order; the alias table over their weights lives in samplers.
	selfishMembers []int32

	// smp holds the lazily built sampling structures: a fully built set is
	// published once with an atomic store, so concurrent first draws are
	// safe, and every later draw is one atomic load (a plain load on
	// mainstream architectures). Deferring the build keeps fully cached
	// sweeps — which construct populations only to address results — from
	// building alias tables they never draw from.
	smp     atomic.Pointer[samplers]
	smpOnce sync.Once
}

// samplers bundles the population's alias tables, built together on first
// use: the population-wide table, the per-pool tables (nil for empty
// pools), and the table conditioned on "the producer is selfish" (nil when
// alpha is zero). Each draw costs one Uint64 plus one Float64, independent
// of the number of miners.
type samplers struct {
	alias        *rng.AliasTable
	poolAlias    []*rng.AliasTable
	selfishAlias *rng.AliasTable
}

// samplers returns the population's sampling structures, building them on
// first use. The built path is a single atomic load, small enough to inline
// into every draw.
func (p *Population) samplers() *samplers {
	if s := p.smp.Load(); s != nil {
		return s
	}
	return p.buildSamplers()
}

// buildSamplers is the cold first-draw path behind samplers.
func (p *Population) buildSamplers() *samplers {
	p.smpOnce.Do(func() {
		s := &samplers{alias: rng.NewAliasTable(p.weights)}
		s.poolAlias = make([]*rng.AliasTable, len(p.poolMembers))
		memberWeights := make([]float64, 0, len(p.miners))
		for pool, members := range p.poolMembers {
			if len(members) == 0 {
				continue
			}
			memberWeights = memberWeights[:0]
			for _, i := range members {
				memberWeights = append(memberWeights, p.weights[i])
			}
			s.poolAlias[pool] = rng.NewAliasTable(memberWeights)
		}
		if len(p.selfishMembers) > 0 {
			memberWeights = memberWeights[:0]
			for _, i := range p.selfishMembers {
				memberWeights = append(memberWeights, p.weights[i])
			}
			s.selfishAlias = rng.NewAliasTable(memberWeights)
		}
		p.smp.Store(s)
	})
	return p.smp.Load()
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
	// One float64 block backs weights and poolPower, and one int32 block
	// backs every pool's member list plus the selfish roster: populations
	// are built per grid point on sweep hot paths, so the constructor
	// allocates a handful of blocks instead of a slice per pool. Each
	// segment's capacity is clamped, so the appends below can never bleed
	// into a neighbor.
	p := &Population{
		miners:      append([]Miner(nil), miners...),
		poolByID:    make([]PoolID, maxID+1),
		poolMembers: make([][]int32, maxPool+1),
	}
	fblock := make([]float64, len(miners)+int(maxPool)+1)
	p.weights = fblock[:len(miners):len(miners)]
	p.poolPower = fblock[len(miners):]
	var countsArr [16]int32
	counts := countsArr[:]
	if int(maxPool) >= len(countsArr) {
		counts = make([]int32, maxPool+1)
	}
	selfish := 0
	for _, m := range miners {
		counts[m.Pool]++
		if m.Pool != HonestPool {
			selfish++
		}
	}
	iblock := make([]int32, 0, len(miners)+selfish)
	off := 0
	for pool := range p.poolMembers {
		c := int(counts[pool])
		p.poolMembers[pool] = iblock[off : off : off+c]
		off += c
	}
	p.selfishMembers = iblock[off : off : off+selfish]
	for i, m := range miners {
		p.weights[i] = m.Power / total
		if m.Pool != HonestPool {
			p.alpha += p.weights[i]
		}
		p.poolByID[m.ID] = m.Pool
		p.poolPower[m.Pool] += p.weights[i]
		p.poolMembers[m.Pool] = append(p.poolMembers[m.Pool], int32(i))
	}
	for i, m := range miners {
		if m.Pool != HonestPool {
			p.selfishMembers = append(p.selfishMembers, int32(i))
		}
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
func (p *Population) NumPools() int { return len(p.poolPower) - 1 }

// PoolPower returns pool's total normalized hash power (pool 0: the honest
// crowd). Labels beyond the population's largest have zero power.
func (p *Population) PoolPower(pool PoolID) float64 {
	if pool < 0 || int(pool) >= len(p.poolPower) {
		return 0
	}
	return p.poolPower[pool]
}

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
	return p.miners[p.samplers().alias.Draw(r)]
}

// SampleMember draws a member of the given pool, weighted by hash power
// within the pool — the per-pool alias path for pool-conditional sampling
// (e.g. attributing a pool's block to one of its members). It consumes
// exactly two generator outputs and panics if the pool has no members,
// which indicates a configuration error.
func (p *Population) SampleMember(pool PoolID, r *rng.Source) Miner {
	s := p.samplers()
	if pool < 0 || int(pool) >= len(s.poolAlias) || s.poolAlias[pool] == nil {
		panic(fmt.Sprintf("mining: SampleMember of empty pool %d", pool))
	}
	return p.miners[p.poolMembers[pool][s.poolAlias[pool].Draw(r)]]
}

// SampleSelfish draws the producer of the next block conditioned on the
// producer being selfish (any pool >= 1), weighted by hash power across all
// selfish pools. Fast-forward mode uses it to resume at the first
// interesting find after skipping a geometric stretch of honest blocks. It
// consumes exactly two generator outputs and panics if the population has no
// selfish power, which indicates a configuration error.
func (p *Population) SampleSelfish(r *rng.Source) Miner {
	s := p.samplers()
	if s.selfishAlias == nil {
		panic("mining: SampleSelfish on a population with no selfish miners")
	}
	return p.miners[p.selfishMembers[s.selfishAlias.Draw(r)]]
}

// SoleMember returns the pool's only member if the pool has exactly one, in
// which case pool-conditional attribution needs no draw at all — the bulk
// block-append fast path. The second return is false for empty and
// multi-member pools.
func (p *Population) SoleMember(pool PoolID) (Miner, bool) {
	if pool < 0 || int(pool) >= len(p.poolMembers) || len(p.poolMembers[pool]) != 1 {
		return Miner{}, false
	}
	return p.Miner(int(p.poolMembers[pool][0])), true
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
