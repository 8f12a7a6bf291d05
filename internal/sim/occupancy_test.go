package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/mining"
)

// checkOccupancyJSON fails unless o encodes to exactly the bytes
// encoding/json writes for the plain map.
func checkOccupancyJSON(t *testing.T, o Occupancy) {
	t.Helper()
	want, err := json.Marshal(map[core.State]int64(o))
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON differs from encoding/json\ngot:  %s\nwant: %s", got, want)
	}
	if o != nil && cap(got) != len(got) {
		t.Errorf("MarshalJSON sized its output %d for %d bytes", cap(got), len(got))
	}
	// Inside a Result, encoding/json calls the method and keeps its bytes.
	inResult, err := json.Marshal(Result{OccupancyByPool: []Occupancy{o}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(inResult, append(append([]byte(`"OccupancyByPool":[`), want...), ']')) {
		t.Fatalf("Result encoding does not carry the map's bytes\n%s", inResult)
	}
}

func TestOccupancyMarshalJSONMatchesMap(t *testing.T) {
	for name, o := range map[string]Occupancy{
		"nil":   nil,
		"empty": {},
		"one":   {{S: 0, H: 0}: 7},
		// "1,5" sorts before "10,2" and "1,50" before "100,0": ',' < '0'.
		"prefix S": {{S: 1, H: 5}: 1, {S: 10, H: 2}: 2, {S: 1, H: 50}: 3, {S: 100, H: 0}: 4},
		// "0,10" sorts before "0,2" as text, not as numbers.
		"text order H": {{S: 0, H: 10}: 1, {S: 0, H: 2}: 2, {S: 0, H: 1}: 3},
		// recordState sends lh < 0 to the overflow map.
		"negative H": {{S: 3, H: -1}: 5, {S: 3, H: 0}: 6, {S: -1, H: 12}: 1, {S: 3, H: -12}: 2},
		"extremes": {
			{S: math.MinInt64, H: math.MinInt64}: math.MinInt64,
			{S: math.MaxInt64, H: math.MinInt64}: math.MaxInt64,
			{S: math.MinInt64, H: math.MaxInt64}: 0,
			{S: math.MaxInt64, H: math.MaxInt64}: -1,
		},
		"values": {{S: 64, H: 63}: -9, {S: 2, H: 0}: 1234567890123, {S: 5, H: 3}: 0},
	} {
		t.Run(name, func(t *testing.T) { checkOccupancyJSON(t, o) })
	}
	// A deep race's worth of frames: the whole dense grid and then some.
	big := make(Occupancy)
	for s := -3; s < occDim+3; s++ {
		for h := -3; h < occDim+3; h++ {
			big[core.State{S: s, H: h}] = int64(s*h - 7)
		}
	}
	t.Run("grid", func(t *testing.T) { checkOccupancyJSON(t, big) })
}

// FuzzOccupancyJSON checks MarshalJSON against encoding/json on maps built
// from the fuzzer's bytes: each 24-byte chunk is one (S, H, count) member.
func FuzzOccupancyJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN"))
	le := binary.LittleEndian
	f.Fuzz(func(t *testing.T, data []byte) {
		o := make(Occupancy)
		for ; len(data) >= 24; data = data[24:] {
			s, h, n := int64(le.Uint64(data)), int64(le.Uint64(data[8:])), int64(le.Uint64(data[16:]))
			// Small keys collide often, which exercises the shared prefixes
			// the sort must order by text.
			if n&1 == 0 {
				s, h = s%130, h%130
			}
			o[core.State{S: int(s), H: int(h)}] = n
		}
		checkOccupancyJSON(t, o)
	})
}

// runnerReuseAllocs bounds the allocations of one reused-Runner run of
// the deep-fork two-pool race below (30 when it was set): the Result's own
// slices and one exactly sized map per pool. Occupancy maps built unsized
// and overflow maps rebuilt for every run took 102.
const runnerReuseAllocs = 40

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
