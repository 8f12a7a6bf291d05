package sim

import (
	"testing"

	"github.com/ethselfish/ethselfish/internal/mining"
)

// runnerReuseAllocs bounds the allocations of one reused-Runner run of
// the deep-fork two-pool race below (26 when it was set): the Result's own
// slices, one exactly sized map per pool and one map per uncle-distance
// counter.
const runnerReuseAllocs = 28

// TestRunnerReuseAllocs pins a reused Runner's allocations per 100k-block
// run of two equal Algorithm-1 pools at 0.33 (3,340 distinct frames over
// both pools, some beyond the dense grid). The count does not depend on
// timing, so it catches a regression that a timed benchmark comparison
// cannot tell from noise.
func TestRunnerReuseAllocs(t *testing.T) {
	pop, err := mining.MultiAgent(0.33, 0.33)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Population: pop, Gamma: 0.5, Blocks: 100000, Seed: 1}
	rn := NewRunner()
	var states int
	allocs := testing.AllocsPerRun(4, func() {
		r, err := rn.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		states = len(r.OccupancyByPool[0]) + len(r.OccupancyByPool[1])
	})
	t.Logf("%.0f allocations per run, %d frames", allocs, states)
	if allocs > runnerReuseAllocs {
		t.Errorf("a reused Runner allocates %.0f times per run, want at most %d", allocs, runnerReuseAllocs)
	}
}
