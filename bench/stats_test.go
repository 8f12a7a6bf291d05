package main

import (
	"math"
	"slices"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		in := slices.Clone(tc.xs)
		q1, m, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, m, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
		if !slices.Equal(in, tc.xs) {
			t.Errorf("quartiles reordered its input: %v", tc.xs)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 5.5/5.5 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestTailLeavesTenSamples: the tail is the highest percentile with at least
// ten samples beyond it, and does not exist below eleven samples.
func TestTailLeavesTenSamples(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if v, pct, ok := tail(xs); !ok || v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	if v, pct, ok := tail(xs[89:]); !ok || v != 1 || math.Abs(pct-100.0/11) > 1e-12 {
		t.Errorf("tail of 11 samples = %v at p%v (ok %v), want the smallest at p9.09", v, pct, ok)
	}
	if _, _, ok := tail(xs[90:]); ok {
		t.Error("tail of 10 samples exists, want none")
	}
	if _, _, ok := tail(nil); ok {
		t.Error("tail of no samples exists, want none")
	}
}

func TestUnionLengthCountsOverlapOnce(t *testing.T) {
	ivs := []interval{{20, 30}, {0, 10}, {5, 15}, {12, 14}}
	if got := unionLength(ivs, 0, 100); got != 25 {
		t.Errorf("union = %d, want 25", got)
	}
	if got := unionLength(ivs, 8, 25); got != 12 {
		t.Errorf("union clipped to [8, 25) = %d, want 12", got)
	}
	if got := unionLength(nil, 0, 100); got != 0 {
		t.Errorf("empty union = %d, want 0", got)
	}
}

// TestSelfTimeSubtractsUnionOfChildren: a span's self time is its duration
// minus the union of its children's intervals inside it, so overlapping
// children are not subtracted twice and a child running past its parent
// only counts inside it.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := newTracer()
	tr.record(span{Name: "row", Layer: "parent", Start: 0, End: 100},
		span{Name: "a", Layer: "child", Start: 10, End: 40},
		span{Name: "b", Layer: "child", Start: 30, End: 60},
		span{Name: "c", Layer: "child", Start: 80, End: 120})
	rp := &replica{tr: tr, workers: 2, start: 0, end: 100}
	st := rp.stats()
	if got := st.layerSelf["parent"]; got != 30 {
		t.Errorf("parent self time = %v, want 100 - |[10,60) ∪ [80,100)| = 30", got)
	}
	if got := st.layerSelf["child"]; got != 100 {
		t.Errorf("children self time = %v, want 30+30+40", got)
	}
	// Worker 0 is busy for the root's 100 ns, worker 1 idle throughout.
	if st.idle != 100 || st.workerNs != 200 {
		t.Errorf("idle %v of worker time %v, want 100 of 200", st.idle, st.workerNs)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, tc := range []struct {
		name string
		b    []float64
		want []string
	}{
		{"same", []float64{10.2, 10.3, 10.1, 10.2, 10.25}, nil},
		{"differs", []float64{12, 12.1, 11.9, 12, 12.05}, []string{"differs"}},
		{"unresolved", []float64{8, 12, 10, 9, 11}, []string{"unresolved"}},
		{"both", []float64{14, 18, 16, 15, 17}, []string{"differs", "unresolved"}},
	} {
		if got := judge(steady, tc.b, 0.1); !slices.Equal(got, tc.want) {
			t.Errorf("%s: judge = %v, want %v", tc.name, got, tc.want)
		}
	}
}
