package mining

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/rng"
)

// allMiners lists the population's miners in index order.
func allMiners(p *Population) []Miner {
	out := make([]Miner, p.Len())
	for i := range out {
		out[i] = p.Miner(i)
	}
	return out
}

func TestNewPopulationNormalizes(t *testing.T) {
	p, err := NewPopulation([]Miner{
		{ID: 1, Power: 30, Pool: 1},
		{ID: 2, Power: 70},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Alpha(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Alpha = %v, want 0.3", got)
	}
	if got := p.Miner(0).Power; math.Abs(got-0.3) > 1e-12 {
		t.Errorf("normalized power = %v, want 0.3", got)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
}

func TestNewPopulationValidation(t *testing.T) {
	tests := []struct {
		name   string
		miners []Miner
	}{
		{"empty", nil},
		{"zero power", []Miner{{ID: 1, Power: 0}}},
		{"negative power", []Miner{{ID: 1, Power: -1}}},
		{"NaN power", []Miner{{ID: 1, Power: math.NaN()}}},
		{"inf power", []Miner{{ID: 1, Power: math.Inf(1)}}},
		{"duplicate ID", []Miner{{ID: 1, Power: 1}, {ID: 1, Power: 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewPopulation(tt.miners); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestEqualPopulation(t *testing.T) {
	p, err := Equal(1000, 450)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Alpha(); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("Alpha = %v, want 0.45", got)
	}
	if p.Len() != 1000 {
		t.Errorf("Len = %d, want 1000", p.Len())
	}
	// IDs 1..n, no ID 0 (reserved for genesis).
	for i, m := range allMiners(p) {
		if m.ID != chain.MinerID(i+1) {
			t.Fatalf("miner %d has ID %d, want %d", i, m.ID, i+1)
		}
		if got := m.Pool != HonestPool; got != (i < 450) {
			t.Fatalf("miner %d selfish = %v", i, got)
		}
	}
}

func TestEqualPopulationValidation(t *testing.T) {
	if _, err := Equal(0, 0); !errors.Is(err, ErrNoMiners) {
		t.Errorf("Equal(0,0) err = %v, want ErrNoMiners", err)
	}
	if _, err := Equal(10, 11); err == nil {
		t.Error("Equal(10,11) should fail")
	}
	if _, err := Equal(10, -1); err == nil {
		t.Error("Equal(10,-1) should fail")
	}
}

func TestTwoAgent(t *testing.T) {
	p, err := TwoAgent(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Alpha(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Alpha = %v, want 0.3", got)
	}
	for _, alpha := range []float64{0, 1, -0.1, 1.1, math.NaN()} {
		if _, err := TwoAgent(alpha); err == nil {
			t.Errorf("TwoAgent(%v) should fail", alpha)
		}
	}
}

func TestSampleFrequencies(t *testing.T) {
	p, err := NewPopulation([]Miner{
		{ID: 1, Power: 1, Pool: 1},
		{ID: 2, Power: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(101)
	const n = 100000
	selfish := 0
	for i := 0; i < n; i++ {
		if p.Sample(r).Pool != HonestPool {
			selfish++
		}
	}
	got := float64(selfish) / n
	sigma := math.Sqrt(0.25 * 0.75 / n)
	if math.Abs(got-0.25) > 5*sigma {
		t.Errorf("selfish frequency %v deviates more than 5 sigma from 0.25", got)
	}
}

func TestIsSelfishMatchesMinerFlags(t *testing.T) {
	p, err := NewPopulation([]Miner{
		{ID: 3, Power: 1, Pool: 1},
		{ID: 7, Power: 2},
		{ID: 1, Power: 1, Pool: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allMiners(p) {
		if got := p.IsSelfish(m.ID); got != (m.Pool != HonestPool) {
			t.Errorf("IsSelfish(%d) = %v, want %v", m.ID, got, !got)
		}
	}
	// Unknown and out-of-range IDs are honest.
	for _, id := range []chain.MinerID{0, 2, 100} {
		if p.IsSelfish(id) {
			t.Errorf("IsSelfish(%d) = true for a miner not in the population", id)
		}
	}
}

func TestNewPopulationRejectsNegativeID(t *testing.T) {
	if _, err := NewPopulation([]Miner{{ID: -1, Power: 1}}); !errors.Is(err, ErrBadID) {
		t.Errorf("negative ID: err = %v, want ErrBadID", err)
	}
}

func TestNewPopulationRejectsSparseID(t *testing.T) {
	// A huge sparse ID would make the dense selfish index (and the dense
	// settlement tallies downstream) allocate O(maxID) memory.
	if _, err := NewPopulation([]Miner{{ID: 1 << 30, Power: 1}}); !errors.Is(err, ErrBadID) {
		t.Errorf("sparse ID: err = %v, want ErrBadID", err)
	}
	// Moderately sparse IDs stay allowed.
	if _, err := NewPopulation([]Miner{{ID: 100, Power: 1}, {ID: 7, Power: 2}}); err != nil {
		t.Errorf("moderately sparse IDs rejected: %v", err)
	}
}

func TestSampleMatchesCategoricalDistribution(t *testing.T) {
	// The alias-table sampler must reproduce the weight distribution the
	// linear categorical draw defines; compare per-miner frequencies on
	// a skewed population.
	p, err := NewPopulation([]Miner{
		{ID: 1, Power: 10, Pool: 1},
		{ID: 2, Power: 1},
		{ID: 3, Power: 5},
		{ID: 4, Power: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2024)
	const n = 200000
	counts := make(map[chain.MinerID]int)
	for i := 0; i < n; i++ {
		counts[p.Sample(r).ID]++
	}
	for _, m := range allMiners(p) {
		got := float64(counts[m.ID]) / n
		want := m.Power // Miner returns normalized powers
		sigma := math.Sqrt(want * (1 - want) / n)
		if math.Abs(got-want) > 5*sigma+1e-9 {
			t.Errorf("miner %d: frequency %v, want %v +/- 5 sigma", m.ID, got, want)
		}
	}
}

func TestEthereum2018Pools(t *testing.T) {
	pools := Ethereum2018Pools()
	if len(pools) != 6 {
		t.Fatalf("got %d pools, want 6", len(pools))
	}
	var total float64
	for _, p := range pools {
		total += p.Share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if pools[0].Name != "Ethermine" || math.Abs(pools[0].Share-0.2634) > 1e-12 {
		t.Errorf("top pool = %+v, want Ethermine 26.34%%", pools[0])
	}
	// Paper: top two pools dominate 48.8% of total hash power.
	if got := pools[0].Share + pools[1].Share; math.Abs(got-0.488) > 1e-9 {
		t.Errorf("top-2 share = %v, want 0.488", got)
	}
	// Paper: top five pools have more than 81%.
	var top5 float64
	for _, p := range pools[:5] {
		top5 += p.Share
	}
	if top5 <= 0.81 {
		t.Errorf("top-5 share = %v, want > 0.81", top5)
	}
}

func TestPoolIndexesAndPowerSums(t *testing.T) {
	p, err := NewPopulation([]Miner{
		{ID: 1, Power: 2, Pool: 1},
		{ID: 2, Power: 1, Pool: 2},
		{ID: 3, Power: 3, Pool: 1},
		{ID: 4, Power: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NumPools(); got != 2 {
		t.Fatalf("NumPools = %d, want 2", got)
	}
	if got := p.Alpha(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Alpha = %v, want 0.6", got)
	}
	wantPools := map[chain.MinerID]PoolID{1: 1, 2: 2, 3: 1, 4: 0, 0: 0, 42: 0}
	for id, want := range wantPools {
		if got := p.PoolOf(id); got != want {
			t.Errorf("PoolOf(%d) = %d, want %d", id, got, want)
		}
	}
}

func TestNewPopulationRejectsBadPool(t *testing.T) {
	if _, err := NewPopulation([]Miner{{ID: 1, Power: 1, Pool: -1}}); !errors.Is(err, ErrBadPool) {
		t.Errorf("negative pool: err = %v, want ErrBadPool", err)
	}
	// Pool labels larger than the miner count would blow up the dense
	// per-pool structures.
	if _, err := NewPopulation([]Miner{{ID: 1, Power: 1, Pool: 100}}); !errors.Is(err, ErrBadPool) {
		t.Errorf("sparse pool: err = %v, want ErrBadPool", err)
	}
}

func TestMultiAgent(t *testing.T) {
	p, err := MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPools() != 2 || p.Len() != 3 {
		t.Fatalf("NumPools = %d, Len = %d, want 2 pools over 3 agents", p.NumPools(), p.Len())
	}
	if got := p.Alpha(); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("Alpha = %v, want 0.45", got)
	}
	for _, alphas := range [][]float64{nil, {0}, {-0.1}, {0.6, 0.5}, {1}} {
		if _, err := MultiAgent(alphas...); err == nil {
			t.Errorf("MultiAgent(%v) should fail", alphas)
		}
	}
	// The single-pool case is exactly TwoAgent.
	multi, err := MultiAgent(0.3)
	if err != nil {
		t.Fatal(err)
	}
	two, err := TwoAgent(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(allMiners(multi), allMiners(two)) {
		t.Errorf("MultiAgent(0.3) miners %+v differ from TwoAgent %+v", allMiners(multi), allMiners(two))
	}
}

func TestEqualPools(t *testing.T) {
	p, err := EqualPools(10, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantPools := []PoolID{1, 1, 1, 2, 2, 0, 0, 0, 0, 0}
	for i, m := range allMiners(p) {
		if m.Pool != wantPools[i] {
			t.Errorf("miner %d pool = %d, want %d", i, m.Pool, wantPools[i])
		}
	}
	if _, err := EqualPools(5, 3, 3); !errors.Is(err, ErrBadPool) {
		t.Errorf("oversubscribed pools: err = %v, want ErrBadPool", err)
	}
	if _, err := EqualPools(5, -1); !errors.Is(err, ErrBadPool) {
		t.Errorf("negative pool size: err = %v, want ErrBadPool", err)
	}
}
