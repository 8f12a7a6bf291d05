// longhorizon drives one selfish-mining configuration to multi-million-
// block horizons. The simulator folds the decided prefix into dense
// per-miner tallies as the consensus floor advances and evicts settled
// records from the block tree, so resident memory is bounded by the active
// race window — not the run length. The example quadruples the horizon twice and shows the resident
// heap staying flat, then cross-checks the converged total reward rate
// against the closed-form EIP100 steady-state oracle.
//
// Run with:
//
//	go run ./examples/longhorizon
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"

	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// residentHeap returns the live heap after a forced collection: what the
// process actually retains, as opposed to what it allocated along the way.
func residentHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func run() error {
	const (
		alpha = 0.30 // the pool's hash-power share
		gamma = 0.5  // uniform tie-breaking
	)
	pop, err := mining.TwoAgent(alpha)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Population: pop,
		Gamma:      gamma,
		Seed:       11,
		Time: sim.TimeConfig{
			Enabled:    true,
			Difficulty: difficulty.Params{Rule: difficulty.EIP100},
		},
	}

	// One reused Runner: arenas and tallies are recycled across runs, so
	// the retained footprint after each run is the steady-state working
	// set, independent of how many blocks flowed through.
	rn := sim.NewRunner()
	fmt.Printf("alpha=%.2f pool, EIP100 difficulty, streaming settlement\n\n", alpha)
	fmt.Printf("%10s %14s %14s %16s\n", "blocks", "steady rate", "stale share", "resident heap")

	var last sim.Result
	for _, blocks := range []int{500000, 2000000, 4000000} {
		cfg.Blocks = blocks
		result, err := rn.Run(cfg)
		if err != nil {
			return err
		}
		stale := float64(result.StaleCount) / float64(result.RegularCount)
		fmt.Printf("%10d %14.4f %14.4f %13.2f MiB\n",
			blocks, result.Steady.TotalRate(), stale,
			float64(residentHeap())/(1<<20))
		last = result
	}

	// The engine-integrated difficulty loop should converge to the
	// closed-form steady-state issuance rate (scenario 2: EIP100 counts
	// the attack's own uncles against it).
	predicted, err := difficulty.PredictedRewardRate(
		difficulty.EIP100, alpha, gamma, rewards.Ethereum())
	if err != nil {
		return err
	}
	simulated := last.Steady.TotalRate()
	fmt.Printf("\nsteady total reward rate: %.4f simulated, %.4f closed form (%.2f%% apart)\n",
		simulated, predicted, 100*math.Abs(simulated-predicted)/predicted)
	fmt.Println()
	fmt.Println("The horizon grew 8x; the resident heap did not. Settled blocks")
	fmt.Println("leave the tree as soon as they fall out of uncle range, so the")
	fmt.Println("event loop runs in O(race window) memory at any run length —")
	fmt.Println("and the streamed tallies are bit-identical to a one-shot settlement")
	fmt.Println("walk over the full tree.")
	return nil
}
