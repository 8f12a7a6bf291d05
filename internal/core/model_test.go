package core

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

const testMaxLead = 80

func newTestModel(t *testing.T, alpha, gamma float64) *Model {
	t.Helper()
	m, err := New(Params{Alpha: alpha, Gamma: gamma})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestNumeric(t *testing.T, alpha, gamma float64) *NumericModel {
	t.Helper()
	m, err := NewNumeric(Params{Alpha: alpha, Gamma: gamma, MaxLead: testMaxLead})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStateValid(t *testing.T) {
	tests := []struct {
		s    State
		want bool
	}{
		{State{0, 0}, true},
		{State{1, 0}, true},
		{State{1, 1}, true},
		{State{2, 0}, true},
		{State{3, 1}, true},
		{State{5, 3}, true},
		{State{2, 1}, false}, // lead 1 with S > 1
		{State{3, 2}, false},
		{State{0, 1}, false},
		{State{-1, 0}, false},
		{State{1, 2}, false},
		{State{2, 2}, false},
	}
	for _, tt := range tests {
		if got := tt.s.Valid(); got != tt.want {
			t.Errorf("%v.Valid() = %v, want %v", tt.s, got, tt.want)
		}
	}
}

func TestParamValidation(t *testing.T) {
	tests := []struct {
		name    string
		params  Params
		wantErr error
	}{
		{"alpha 0", Params{Alpha: 0, Gamma: 0.5}, ErrBadAlpha},
		{"alpha 0.5", Params{Alpha: 0.5, Gamma: 0.5}, ErrBadAlpha},
		{"alpha negative", Params{Alpha: -0.1, Gamma: 0.5}, ErrBadAlpha},
		{"alpha NaN", Params{Alpha: math.NaN(), Gamma: 0.5}, ErrBadAlpha},
		{"gamma negative", Params{Alpha: 0.3, Gamma: -0.01}, ErrBadGamma},
		{"gamma above 1", Params{Alpha: 0.3, Gamma: 1.01}, ErrBadGamma},
		{"gamma NaN", Params{Alpha: 0.3, Gamma: math.NaN()}, ErrBadGamma},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.params); !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestModelDefaults(t *testing.T) {
	m, err := New(Params{Alpha: 0.2, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Params().Schedule.Name(); got != "ethereum" {
		t.Errorf("default schedule = %q, want ethereum", got)
	}
	if got := m.Params().MaxLead; got != DefaultMaxLead {
		t.Errorf("default MaxLead = %d, want %d", got, DefaultMaxLead)
	}
	n, err := NewNumeric(Params{Alpha: 0.2, Gamma: 0.5, MaxLead: 40})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Params().MaxLead; got != 40 {
		t.Errorf("MaxLead = %d, want 40", got)
	}
}

func TestStationarySumsToOne(t *testing.T) {
	for _, alpha := range []float64{0.1, 0.25, 0.4, 0.45} {
		m := newTestNumeric(t, alpha, 0.5)
		var sum float64
		for _, p := range m.Stationary() {
			if p < 0 {
				t.Fatalf("alpha=%v: negative probability", alpha)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("alpha=%v: total mass %v, want 1", alpha, sum)
		}
	}
}

func TestStationaryMatchesClosedFormJ0(t *testing.T) {
	// pi(0,0), pi(i,0) and pi(1,1) have simple closed forms (Sec. IV-C);
	// the numerical solution must agree to within the truncation error,
	// which decays like (alpha/beta)^MaxLead (~1e-7 at alpha = 0.45,
	// MaxLead = 80). Gamma 0 is excluded here: its stationary mass has a
	// heavy diagonal tail on top of that (see
	// TestNumericTruncationBiasAtGammaZero).
	for _, alpha := range []float64{0.1, 0.2, 0.3, 0.4, 0.45} {
		for _, gamma := range []float64{0.25, 0.5, 1} {
			m := newTestNumeric(t, alpha, gamma)
			if got, want := m.Pi(State{}), Pi00(alpha); math.Abs(got-want) > 1e-6 {
				t.Errorf("a=%v g=%v: pi(0,0) = %v, want %v", alpha, gamma, got, want)
			}
			if got, want := m.Pi(State{S: 1, H: 1}), Pi11(alpha); math.Abs(got-want) > 1e-6 {
				t.Errorf("a=%v g=%v: pi(1,1) = %v, want %v", alpha, gamma, got, want)
			}
			for i := 1; i <= 12; i++ {
				got := m.Pi(State{S: i})
				want := PiI0(alpha, i)
				if math.Abs(got-want) > 1e-6 {
					t.Errorf("a=%v g=%v: pi(%d,0) = %v, want %v",
						alpha, gamma, i, got, want)
				}
			}
		}
	}
}

func TestStationaryMatchesClosedFormIJ(t *testing.T) {
	// The general closed form (Eq. 2 with the multi-sum helper) against
	// the numerical solution, for a grid of small states.
	for _, alpha := range []float64{0.2, 0.35, 0.45} {
		for _, gamma := range []float64{0.25, 0.5, 0.9} {
			m := newTestNumeric(t, alpha, gamma)
			for i := 3; i <= 10; i++ {
				for j := 1; j <= i-2; j++ {
					got := m.Pi(State{S: i, H: j})
					want := PiIJ(alpha, gamma, i, j)
					if math.Abs(got-want) > 1e-6 {
						t.Errorf("a=%v g=%v: pi(%d,%d) = %.12g, closed form %.12g",
							alpha, gamma, i, j, got, want)
					}
				}
			}
		}
	}
}

func TestPi00Monotone(t *testing.T) {
	// Remark 2: pi(0,0) decreases in alpha and lies in (0, 1).
	prev := 1.0
	for alpha := 0.05; alpha < 0.5; alpha += 0.05 {
		p := Pi00(alpha)
		if p <= 0 || p >= 1 {
			t.Errorf("pi00(%v) = %v out of (0,1)", alpha, p)
		}
		if p >= prev {
			t.Errorf("pi00(%v) = %v did not decrease (prev %v)", alpha, p, prev)
		}
		prev = p
	}
}

func TestRemark3GeometricDecay(t *testing.T) {
	// Remark 3: pi(i,0) < 1e-6 for i >= 15 at alpha = 0.4.
	if p := PiI0(0.4, 15); p >= 1e-6 {
		t.Errorf("pi(15,0) = %v, want < 1e-6", p)
	}
	if p := PiI0(0.4, 14); p <= PiI0(0.4, 15) {
		t.Error("pi(i,0) should decay geometrically")
	}
}

func TestMultiSumExamples(t *testing.T) {
	// Appendix A: f(x,y,1) = x-y-1 and f(x,y,2) = (x-y-1)(x-y+2)/2.
	tests := []struct {
		x, y, z int
		want    float64
	}{
		{5, 1, 1, 3},
		{10, 3, 1, 6},
		{5, 1, 2, 9},   // (5-1-1)(5-1+2)/2 = 3*6/2
		{10, 3, 2, 27}, // (10-3-1)(10-3+2)/2 = 6*9/2
		{3, 1, 1, 1},
		{2, 1, 1, 0}, // x < y+2
		{5, 1, 0, 0}, // z < 1
		{4, 2, 2, 2}, // (4-2-1)(4-2+2)/2 = 1*4/2... check by enumeration below
	}
	for _, tt := range tests {
		if got := MultiSum(tt.x, tt.y, tt.z); got != tt.want {
			t.Errorf("MultiSum(%d,%d,%d) = %v, want %v", tt.x, tt.y, tt.z, got, tt.want)
		}
	}
}

func TestMultiSumMatchesBruteForce(t *testing.T) {
	// Independent brute-force evaluation of the nested sums for z <= 3.
	brute := func(x, y, z int) int64 {
		if z < 1 || x < y+2 {
			return 0
		}
		lb := func(k int) int { return y - z + k + 2 }
		var count int64
		switch z {
		case 1:
			for s1 := lb(1); s1 <= x; s1++ {
				count++
			}
		case 2:
			for s2 := lb(2); s2 <= x; s2++ {
				for s1 := lb(1); s1 <= s2; s1++ {
					count++
				}
			}
		case 3:
			for s3 := lb(3); s3 <= x; s3++ {
				for s2 := lb(2); s2 <= s3; s2++ {
					for s1 := lb(1); s1 <= s2; s1++ {
						count++
					}
				}
			}
		}
		return count
	}
	for z := 1; z <= 3; z++ {
		for y := 0; y <= 5; y++ {
			for x := y + 2; x <= y+8; x++ {
				if got, want := MultiSum(x, y, z), float64(brute(x, y, z)); got != want {
					t.Errorf("MultiSum(%d,%d,%d) = %v, brute force %v", x, y, z, got, want)
				}
			}
		}
	}
}

func TestNumericTruncationInsensitiveAtModerateGamma(t *testing.T) {
	// Doubling the truncation must not change pi(0,0) or the revenue
	// beyond the lead-tail error (alpha/beta)^80 ~ 1e-7 at alpha = 0.45.
	small, err := NewNumeric(Params{Alpha: 0.45, Gamma: 0.5, MaxLead: 80})
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewNumeric(Params{Alpha: 0.45, Gamma: 0.5, MaxLead: 160})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := small.Pi(State{}), large.Pi(State{}); math.Abs(a-b) > 1e-6 {
		t.Errorf("pi00 truncation-sensitive: %v vs %v", a, b)
	}
	ra, rb := small.Revenue(), large.Revenue()
	if math.Abs(ra.PoolTotal()-rb.PoolTotal()) > 1e-6 {
		t.Errorf("pool revenue truncation-sensitive: %v vs %v", ra.PoolTotal(), rb.PoolTotal())
	}
}

func TestNumericTruncationBiasAtGammaZero(t *testing.T) {
	// At gamma = 0 the stationary mass wanders far along the (i,j)
	// diagonal: excursions only end when the public branch catches up,
	// so the per-diagonal mass decays like (4*a*b)^i, which is 0.96 at
	// a = 0.4. The truncated chain therefore shows a visible bias that
	// shrinks as the truncation grows; the closed form is exact.
	coarse, err := NewNumeric(Params{Alpha: 0.4, Gamma: 0, MaxLead: 40})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := NewNumeric(Params{Alpha: 0.4, Gamma: 0, MaxLead: 160})
	if err != nil {
		t.Fatal(err)
	}
	exact := Pi00(0.4)
	coarseErr := math.Abs(coarse.Pi(State{}) - exact)
	fineErr := math.Abs(fine.Pi(State{}) - exact)
	if coarseErr < 1e-9 {
		t.Skip("coarse truncation unexpectedly exact; nothing to compare")
	}
	if fineErr >= coarseErr {
		t.Errorf("refining the truncation did not shrink the bias: %v -> %v",
			coarseErr, fineErr)
	}
}

func TestLeadProbAggregatesStates(t *testing.T) {
	// piL(l) must equal the sum of pi(l+j, j) over j, and the lead
	// probabilities must sum to one.
	m := newTestNumeric(t, 0.35, 0.5)
	for lead := 2; lead <= 8; lead++ {
		var sum float64
		for j := 0; j <= testMaxLead-lead; j++ {
			sum += m.Pi(State{S: lead + j, H: j})
		}
		want := LeadProb(0.35, lead)
		if math.Abs(sum-want) > 1e-7 {
			t.Errorf("lead %d: aggregated %v, closed form %v", lead, sum, want)
		}
	}
	var total float64
	for lead := 0; lead < 4000; lead++ {
		total += LeadProb(0.45, lead)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("lead probabilities sum to %v, want 1", total)
	}
}

func TestForkMassIdentity(t *testing.T) {
	// G(l) = piL(l) - pi(l,0) and non-negative. G need not be monotone
	// near lead 2 (lead-2 forks reset immediately), but the geometric
	// lead law forces eventual decay.
	for _, alpha := range []float64{0.2, 0.45} {
		for lead := 2; lead <= 10; lead++ {
			g := ForkMass(alpha, lead)
			if g < 0 {
				t.Fatalf("ForkMass(%v, %d) = %v negative", alpha, lead, g)
			}
			want := LeadProb(alpha, lead) - PiI0(alpha, lead)
			if math.Abs(g-want) > 1e-15 {
				t.Errorf("ForkMass identity violated at lead %d", lead)
			}
		}
		if ForkMass(alpha, 30) >= ForkMass(alpha, 10) {
			t.Errorf("alpha=%v: fork mass did not decay between leads 10 and 30", alpha)
		}
	}
	if ForkMass(0.3, 1) != 0 || ForkMass(0.3, 0) != 0 {
		t.Error("ForkMass below lead 2 should be 0")
	}
}

func TestNumericNearHalfAlpha(t *testing.T) {
	// At alpha 0.48 the chain mixes slowest of any case here: the solve
	// must still settle within its sweep cap and match the closed form.
	m, err := NewNumeric(Params{Alpha: 0.48, Gamma: 0.5, MaxLead: 160})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Pi(State{}), Pi00(0.48); math.Abs(got-want) > 1e-5 {
		t.Errorf("pi(0,0) = %v, closed form %v", got, want)
	}
}

func TestNumericRevenueDeterministic(t *testing.T) {
	// Revenue sums over the states in chain order, so repeated calls
	// agree to the bit.
	m := newTestNumeric(t, 0.35, 0.5)
	first := m.Revenue()
	for i := 0; i < 20; i++ {
		if got := m.Revenue(); !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d: %+v, first call %+v", i+2, got, first)
		}
	}
}
