package resultcache

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/stats"
)

// encodeRow returns appendRow's line for row.
func encodeRow(row journalRow) ([]byte, error) {
	var buf rowBuffer
	err := appendRow(&buf, &row)
	return buf.line, err
}

// checkAppendRow fails unless appendRow writes exactly json.Marshal's bytes
// for row and a newline.
func checkAppendRow(t *testing.T, row journalRow) {
	t.Helper()
	want, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := encodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("appendRow differs from encoding/json\ngot:  %s\nwant: %s", got, want)
	}
}

// TestAppendRowZeroRowMatchesOracle: the zero row encodes as json.Marshal
// encodes it, so a field added to sim.Result (which json.Marshal writes
// and appendRow does not know) fails here until appendRow learns it.
func TestAppendRowZeroRowMatchesOracle(t *testing.T) {
	checkAppendRow(t, journalRow{})
}

// TestAppendRowOccupancyMatchesMap encodes occupancy objects whose member
// order tests the key-text sort: encoding/json sorts map keys by their
// text, so "1,5" < "10,2" and "0,10" < "0,2".
func TestAppendRowOccupancyMatchesMap(t *testing.T) {
	for name, o := range map[string]sim.Occupancy{
		"nil":   nil,
		"empty": {},
		"one":   {{S: 0, H: 0}: 7},
		// "1,5" sorts before "10,2" and "1,50" before "100,0": ',' < '0'.
		"prefix S": {{S: 1, H: 5}: 1, {S: 10, H: 2}: 2, {S: 1, H: 50}: 3, {S: 100, H: 0}: 4},
		// "0,10" sorts before "0,2" as text, not as numbers.
		"text order H": {{S: 0, H: 10}: 1, {S: 0, H: 2}: 2, {S: 0, H: 1}: 3},
		// The simulator's overflow map takes frames with Lh < 0.
		"negative H": {{S: 3, H: -1}: 5, {S: 3, H: 0}: 6, {S: -1, H: 12}: 1, {S: 3, H: -12}: 2},
		"extremes": {
			{S: math.MinInt64, H: math.MinInt64}: math.MinInt64,
			{S: math.MaxInt64, H: math.MinInt64}: math.MaxInt64,
			{S: math.MinInt64, H: math.MaxInt64}: 0,
			{S: math.MaxInt64, H: math.MaxInt64}: -1,
		},
		"values": {{S: 64, H: 63}: -9, {S: 2, H: 0}: 1234567890123, {S: 5, H: 3}: 0},
		// A deep race's worth of frames: the simulator's whole 64x64 dense
		// grid and then some.
		"grid": bigOccupancy(-3, 67),
	} {
		t.Run(name, func(t *testing.T) {
			checkAppendRow(t, journalRow{Result: sim.Result{OccupancyByPool: []sim.Occupancy{o, nil, o}}})
		})
	}
}

// bigOccupancy returns the occupancy of every state with both coordinates
// in [lo, hi).
func bigOccupancy(lo, hi int) sim.Occupancy {
	o := make(sim.Occupancy)
	for s := lo; s < hi; s++ {
		for h := lo; h < hi; h++ {
			o[core.State{S: s, H: h}] = int64(s*h - 7)
		}
	}
	return o
}

// formatEdgeFloats are the floats FuzzAppendRow's seeds carry: -0,
// subnormals, both sides of the 1e-6 and 1e21 format switches, one- and
// three-digit exponents, NaN and the infinities.
var formatEdgeFloats = []float64{
	math.Copysign(0, -1), 5e-324, -math.SmallestNonzeroFloat64 * 3, 2.2250738585072009e-308,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-9, 1e-10, 1.7e-300,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e22, math.MaxFloat64, 123456.789,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// fuzzValues reads a row's values from fuzzer bytes, eight at a time (zero
// once they run out): floats from their bits, the rest from the word.
type fuzzValues []byte

func (v *fuzzValues) word() uint64 {
	var w [8]byte
	*v = (*v)[copy(w[:], *v):]
	return binary.LittleEndian.Uint64(w[:])
}

func (v *fuzzValues) float() float64 { return math.Float64frombits(v.word()) }

// small returns an int that is sometimes anything and mostly small,
// negative or multi-digit, so map keys collide and share text prefixes.
func (v *fuzzValues) small() int {
	w := v.word()
	if w&1 == 0 {
		return int(int64(w))
	}
	return int(w>>1%260) - 130
}

// shape returns -1 for a nil container or its length, 0 to 3.
func (v *fuzzValues) shape() int { return int(v.word()%5) - 1 }

func fuzzList[T any](v *fuzzValues, elem func() T) []T {
	n := v.shape()
	if n < 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = elem()
	}
	return s
}

func (v *fuzzValues) reward() chain.Reward {
	return chain.Reward{Static: v.float(), Uncle: v.float(), Nephew: v.float()}
}

func (v *fuzzValues) rewards() []chain.Reward { return fuzzList(v, v.reward) }

func (v *fuzzValues) counter() stats.Counter {
	var c stats.Counter
	switch n := v.shape(); {
	case n == 0:
		c, _ = stats.CounterFromPairs(nil)
	case n > 0:
		for i := 0; i < 3*n; i++ {
			c.ObserveN(v.small(), 1+int64(v.word()%1000))
		}
	}
	return c
}

func (v *fuzzValues) occupancy() sim.Occupancy {
	n := v.shape()
	if n < 0 {
		return nil
	}
	o := make(sim.Occupancy)
	for i := 0; i < 5*n; i++ {
		o[core.State{S: v.small(), H: v.small()}] = int64(v.word())
	}
	return o
}

func (v *fuzzValues) window() sim.Window {
	return sim.Window{Start: v.float(), End: v.float(), Regular: v.small(), Uncles: v.small(), ByPool: v.rewards()}
}

func (v *fuzzValues) result() sim.Result {
	return sim.Result{
		Alpha: v.float(), Blocks: v.small(), Pool: v.reward(), Honest: v.reward(),
		ByPool: v.rewards(), MinerRewards: v.rewards(),
		MinerSeen:    fuzzList(v, func() bool { return v.word()&1 == 1 }),
		RegularCount: v.small(), UncleCount: v.small(), StaleCount: v.small(),
		PoolUncleDistances: v.counter(), HonestUncleDistances: v.counter(),
		EventsByPool:    fuzzList(v, func() int64 { return int64(v.word()) }),
		OccupancyByPool: fuzzList(v, v.occupancy),
		Elapsed:         v.float(), SettledTime: v.float(),
		InitialDifficulty: v.float(), FinalDifficulty: v.float(), Retargets: v.small(),
		Early: v.window(), Steady: v.window(),
	}
}

// FuzzAppendRow: appendRow writes exactly json.Marshal's bytes and a
// newline for rows built from the fuzzer's bytes, refuses what encoding/json
// refuses (NaN and infinite floats), and parseRow reads every line it
// writes back to the same row.
func FuzzAppendRow(f *testing.F) {
	var edges []byte
	for _, x := range formatEdgeFloats {
		edges = binary.LittleEndian.AppendUint64(edges, math.Float64bits(x))
	}
	key := strings.Repeat("0f", 32)
	finite := edges[:len(edges)-3*8] // NaN and the infinities come last
	f.Add(key, uint64(0), []byte{})
	f.Add(key, uint64(math.MaxUint64), bytes.Repeat(finite, 8))
	f.Add(key, uint64(math.MaxUint64-1), bytes.Repeat(finite[8:], 8))
	f.Add(key, uint64(1)<<63, bytes.Repeat(edges, 8))
	f.Add(key, uint64(1)<<63-1, bytes.Repeat([]byte{0xff}, 400))
	f.Add("a<b", uint64(7), []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN"))
	f.Fuzz(func(t *testing.T, key string, seed uint64, data []byte) {
		values := fuzzValues(data)
		row := journalRow{Key: key, Seed: seed, Result: values.result()}
		want, jsonErr := json.Marshal(row)
		got, err := encodeRow(row)
		if plain, _ := json.Marshal(key); string(plain) != `"`+key+`"` || strings.ContainsFunc(key, func(r rune) bool { return r >= 0x7f }) {
			// A key json.Marshal escapes, or that parseRow would refuse.
			if err == nil {
				t.Fatalf("appendRow accepted key %q", key)
			}
			return
		}
		if (err != nil) != (jsonErr != nil) {
			t.Fatalf("appendRow error %v, encoding/json error %v", err, jsonErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("appendRow differs from encoding/json\ngot:  %s\nwant: %s", got, want)
		}
		var back journalRow
		if err := parseRow(got[:len(got)-1], &back); err != nil {
			t.Fatalf("parseRow refused appendRow's line: %v\n%s", err, got)
		}
		back.Result.RestoreAliases()
		row.Result.RestoreAliases()
		if !reflect.DeepEqual(back, row) {
			t.Fatalf("parseRow round trip differs\n%s", got)
		}
	})
}
