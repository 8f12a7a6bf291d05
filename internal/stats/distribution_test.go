package stats

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Observe(1)
	c.Observe(1)
	c.Observe(2)
	c.ObserveN(3, 2)

	if c.Total() != 5 {
		t.Fatalf("Total = %d, want 5", c.Total())
	}
	if c.Count(1) != 2 || c.Count(2) != 1 || c.Count(3) != 2 {
		t.Errorf("counts = %d/%d/%d, want 2/1/2", c.Count(1), c.Count(2), c.Count(3))
	}
	if got := c.Count(99); got != 0 {
		t.Errorf("Count(99) = %v, want 0", got)
	}
	wantMean := (1.0*2 + 2.0*1 + 3.0*2) / 5
	if got := c.Mean(); !almostEqual(got, wantMean, 1e-12) {
		t.Errorf("Mean = %v, want %v", got, wantMean)
	}
}

func TestCounterEmpty(t *testing.T) {
	var c Counter
	if c.Total() != 0 || c.Mean() != 0 || c.Count(1) != 0 {
		t.Error("empty counter should report zeros")
	}
	d := c.Distribution(6)
	if d.Sum() != 0 {
		t.Errorf("empty distribution sum = %v, want 0", d.Sum())
	}
}

func TestCounterOutcomesSorted(t *testing.T) {
	var c Counter
	for _, k := range []int{5, 1, 3, 1, 5, 2} {
		c.Observe(k)
	}
	got := c.Outcomes()
	want := []int{1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Outcomes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Outcomes = %v, want %v", got, want)
		}
	}
}

func TestCounterDistributionRenormalizes(t *testing.T) {
	var c Counter
	c.ObserveN(1, 3)
	c.ObserveN(2, 1)
	c.ObserveN(10, 6) // outside the 1..6 window

	d := c.Distribution(6)
	if !almostEqual(d.Sum(), 1, 1e-12) {
		t.Fatalf("Sum = %v, want 1", d.Sum())
	}
	if !almostEqual(d.P[0], 0.75, 1e-12) || !almostEqual(d.P[1], 0.25, 1e-12) {
		t.Errorf("P = %v, want [0.75 0.25 0 0 0 0]", d.P)
	}
}

func TestCounterMerge(t *testing.T) {
	var a, b Counter
	a.ObserveN(1, 2)
	b.ObserveN(1, 3)
	b.ObserveN(4, 1)
	a.Merge(&b)
	if a.Total() != 6 || a.Count(1) != 5 || a.Count(4) != 1 {
		t.Errorf("merged counter: total %d, count(1) %d, count(4) %d",
			a.Total(), a.Count(1), a.Count(4))
	}
}

// TestCounterAppendJSON: AppendJSON writes json.Marshal's bytes for the
// sorted [outcome, count] pairs (null for the zero counter) and, for up to
// 64 outcomes, allocates nothing beyond its output.
func TestCounterAppendJSON(t *testing.T) {
	empty, err := CounterFromPairs(nil)
	if err != nil {
		t.Fatal(err)
	}
	var many Counter
	for k := 100; k > -100; k -= 3 {
		many.ObserveN(k, int64(k*k+1))
	}
	var window Counter
	for k := 64; k >= 1; k-- {
		window.ObserveN(k, int64(k))
	}
	for name, tc := range map[string]struct {
		c    Counter
		want string
	}{
		"zero":   {Counter{}, "null"},
		"empty":  {empty, "[]"},
		"window": {window, ""},
		"many":   {many, ""},
		"extreme": {func() (c Counter) {
			c.ObserveN(math.MinInt, math.MaxInt64)
			c.ObserveN(math.MaxInt, 1)
			return c
		}(), ""},
	} {
		want := []byte(tc.want)
		if tc.want == "" {
			pairs := [][2]int64{}
			for _, k := range tc.c.Outcomes() {
				pairs = append(pairs, [2]int64{int64(k), tc.c.Count(k)})
			}
			if want, err = json.Marshal(pairs); err != nil {
				t.Fatal(err)
			}
		}
		if got := tc.c.AppendJSON([]byte("x")); string(got) != "x"+string(want) {
			t.Errorf("%s: AppendJSON = %s, want x%s", name, got, want)
		}
		if got, err := tc.c.MarshalJSON(); err != nil || string(got) != string(want) {
			t.Errorf("%s: MarshalJSON = %s, %v, want %s", name, got, err, want)
		}
	}
	buf := make([]byte, 0, 1024)
	if allocs := testing.AllocsPerRun(10, func() { buf = window.AppendJSON(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendJSON of a 64-outcome counter allocates %.0f times", allocs)
	}
}

func TestDistributionMean(t *testing.T) {
	d := Distribution{P: []float64{0.5, 0.25, 0.25}}
	want := 1*0.5 + 2*0.25 + 3*0.25
	if got := d.Mean(); !almostEqual(got, want, 1e-12) {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestDistributionNormalize(t *testing.T) {
	d := Distribution{P: []float64{2, 1, 1}}
	n := d.Normalize()
	if !almostEqual(n.Sum(), 1, 1e-12) {
		t.Errorf("normalized sum = %v", n.Sum())
	}
	if !almostEqual(n.P[0], 0.5, 1e-12) {
		t.Errorf("P[0] = %v, want 0.5", n.P[0])
	}
	// Original must be untouched.
	if d.P[0] != 2 {
		t.Error("Normalize mutated the receiver")
	}
	zero := Distribution{P: []float64{0, 0}}
	if got := zero.Normalize().Sum(); got != 0 {
		t.Errorf("zero-mass normalize sum = %v, want 0", got)
	}
}

func TestTotalVariation(t *testing.T) {
	a := Distribution{P: []float64{1, 0}}
	b := Distribution{P: []float64{0, 1}}
	if got := a.TotalVariation(b); !almostEqual(got, 1, 1e-12) {
		t.Errorf("TV(disjoint) = %v, want 1", got)
	}
	if got := a.TotalVariation(a); got != 0 {
		t.Errorf("TV(self) = %v, want 0", got)
	}
	// Different lengths pad with zeros.
	c := Distribution{P: []float64{0.5, 0.5}}
	d := Distribution{P: []float64{0.5, 0.25, 0.25}}
	if got := c.TotalVariation(d); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("TV(padded) = %v, want 0.25", got)
	}
}

func TestTotalVariationProperties(t *testing.T) {
	// TV is symmetric and within [0, 1] for probability vectors.
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		p := makeDist(raw[:half])
		q := makeDist(raw[half:])
		if p.Sum() == 0 || q.Sum() == 0 {
			return true
		}
		tv1 := p.TotalVariation(q)
		tv2 := q.TotalVariation(p)
		return almostEqual(tv1, tv2, 1e-12) && tv1 >= -1e-12 && tv1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func makeDist(raw []float64) Distribution {
	p := make([]float64, len(raw))
	for i, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		p[i] = math.Abs(x)
	}
	return Distribution{P: p}.Normalize()
}

func TestDistributionString(t *testing.T) {
	d := Distribution{P: []float64{0.5, 0.5}}
	if got, want := d.String(), "[1:0.500 2:0.500]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
