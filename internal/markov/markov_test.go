package markov

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// twoState builds the classic two-state chain with flip probabilities p and
// q; its stationary distribution is (q/(p+q), p/(p+q)).
func twoState(p, q float64) *Chain[string] {
	c := New[string]()
	c.AddTransition("a", "b", p)
	c.AddTransition("a", "a", 1-p)
	c.AddTransition("b", "a", q)
	c.AddTransition("b", "b", 1-q)
	return c
}

func TestTwoStateStationary(t *testing.T) {
	tests := []struct {
		name   string
		method Method
	}{
		{"dense", Dense},
		{"iterative", Iterative},
		{"auto", Auto},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := twoState(0.3, 0.1)
			pi, err := c.Stationary(Options{Method: tt.method})
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(pi["a"], 0.25, 1e-9) {
				t.Errorf("pi[a] = %v, want 0.25", pi["a"])
			}
			if !almostEqual(pi["b"], 0.75, 1e-9) {
				t.Errorf("pi[b] = %v, want 0.75", pi["b"])
			}
		})
	}
}

func TestPeriodicChain(t *testing.T) {
	// A deterministic 3-cycle is periodic; plain power iteration would
	// oscillate, but the damped iteration must converge to uniform.
	c := New[int]()
	c.AddTransition(0, 1, 1)
	c.AddTransition(1, 2, 1)
	c.AddTransition(2, 0, 1)
	for _, method := range []Method{Dense, Iterative} {
		pi, err := c.Stationary(Options{Method: method})
		if err != nil {
			t.Fatalf("method %d: %v", method, err)
		}
		for s := 0; s < 3; s++ {
			if !almostEqual(pi[s], 1.0/3, 1e-9) {
				t.Errorf("method %d: pi[%d] = %v, want 1/3", method, s, pi[s])
			}
		}
	}
}

func TestBirthDeathChain(t *testing.T) {
	// Random walk on 0..n with reflecting boundaries and up-probability p
	// has stationary pi(i) proportional to (p/q)^i.
	const (
		n = 20
		p = 0.4
	)
	q := 1 - p
	c := New[int]()
	c.AddTransition(0, 1, p)
	c.AddTransition(0, 0, q)
	for i := 1; i < n; i++ {
		c.AddTransition(i, i+1, p)
		c.AddTransition(i, i-1, q)
	}
	c.AddTransition(n, n-1, q)
	c.AddTransition(n, n, p)

	pi, err := c.Stationary(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := p / q
	var norm float64
	for i := 0; i <= n; i++ {
		norm += math.Pow(ratio, float64(i))
	}
	for i := 0; i <= n; i++ {
		want := math.Pow(ratio, float64(i)) / norm
		if !almostEqual(pi[i], want, 1e-10) {
			t.Errorf("pi[%d] = %v, want %v", i, pi[i], want)
		}
	}
}

func TestDenseAndIterativeAgree(t *testing.T) {
	// A random-looking but fixed 5-state chain: both solvers must agree.
	c := New[int]()
	rows := [][]float64{
		{0.1, 0.2, 0.3, 0.4, 0.0},
		{0.0, 0.5, 0.0, 0.25, 0.25},
		{0.3, 0.3, 0.4, 0.0, 0.0},
		{0.25, 0.25, 0.25, 0.25, 0.0},
		{0.0, 0.0, 0.5, 0.5, 0.0},
	}
	for i, row := range rows {
		for j, p := range row {
			c.AddTransition(i, j, p)
		}
	}
	dense, err := c.Stationary(Options{Method: Dense})
	if err != nil {
		t.Fatal(err)
	}
	iter, err := c.Stationary(Options{Method: Iterative})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		if !almostEqual(dense[s], iter[s], 1e-9) {
			t.Errorf("state %d: dense %v vs iterative %v", s, dense[s], iter[s])
		}
	}
}

func TestStationaryIsInvariant(t *testing.T) {
	// pi P = pi must hold for the returned distribution.
	c := twoState(0.42, 0.17)
	pi, err := c.Stationary(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c.States() {
		var flowIn float64
		for _, from := range c.States() {
			flowIn += pi[from] * c.Prob(from, s)
		}
		if !almostEqual(flowIn, pi[s], 1e-10) {
			t.Errorf("state %v: inflow %v != pi %v", s, flowIn, pi[s])
		}
	}
}

func TestStationaryRandomChainsProperty(t *testing.T) {
	// Any strictly positive row-normalized matrix is irreducible and
	// aperiodic; the solver must return a probability vector satisfying
	// the balance equations.
	f := func(raw [16]float64) bool {
		const n = 4
		c := New[int]()
		for i := 0; i < n; i++ {
			var row [n]float64
			var sum float64
			for j := 0; j < n; j++ {
				v := math.Abs(raw[i*n+j])
				if math.IsNaN(v) || v > 1e6 {
					// Clamp huge magnitudes: summing values near
					// MaxFloat64 overflows to +Inf.
					v = math.Mod(v, 1e6)
					if math.IsNaN(v) {
						v = 0
					}
				}
				row[j] = v + 0.01 // strictly positive
				sum += row[j]
			}
			for j := 0; j < n; j++ {
				c.AddTransition(i, j, row[j]/sum)
			}
		}
		pi, err := c.Stationary(Options{})
		if err != nil {
			return false
		}
		var total float64
		for s := 0; s < n; s++ {
			if pi[s] < 0 {
				return false
			}
			total += pi[s]
			var flowIn float64
			for from := 0; from < n; from++ {
				flowIn += pi[from] * c.Prob(from, s)
			}
			if !almostEqual(flowIn, pi[s], 1e-8) {
				return false
			}
		}
		return almostEqual(total, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsSubStochastic(t *testing.T) {
	c := New[string]()
	c.AddTransition("a", "b", 0.5)
	c.AddTransition("b", "a", 1)
	if err := c.Validate(); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("err = %v, want ErrNotStochastic", err)
	}
	if _, err := c.Stationary(Options{}); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("Stationary err = %v, want ErrNotStochastic", err)
	}
}

func TestEmptyChain(t *testing.T) {
	c := New[int]()
	if err := c.Validate(); !errors.Is(err, ErrEmptyChain) {
		t.Errorf("Validate err = %v, want ErrEmptyChain", err)
	}
	if _, err := c.Stationary(Options{}); !errors.Is(err, ErrEmptyChain) {
		t.Errorf("Stationary err = %v, want ErrEmptyChain", err)
	}
}

func TestReducibleChainRejected(t *testing.T) {
	// Two disconnected self-loop states.
	c := New[string]()
	c.AddTransition("a", "a", 1)
	c.AddTransition("b", "b", 1)
	if c.IsIrreducible() {
		t.Error("disconnected chain reported irreducible")
	}
	if _, err := c.Stationary(Options{}); !errors.Is(err, ErrReducible) {
		t.Errorf("Stationary err = %v, want ErrReducible", err)
	}
}

func TestAbsorbingChainRejected(t *testing.T) {
	// a -> b -> b: not irreducible (a unreachable from b).
	c := New[string]()
	c.AddTransition("a", "b", 1)
	c.AddTransition("b", "b", 1)
	if c.IsIrreducible() {
		t.Error("absorbing chain reported irreducible")
	}
}

func TestAddTransitionAccumulates(t *testing.T) {
	c := New[int]()
	c.AddTransition(1, 2, 0.25)
	c.AddTransition(1, 2, 0.25)
	if got := c.Prob(1, 2); !almostEqual(got, 0.5, 1e-15) {
		t.Errorf("Prob(1,2) = %v, want 0.5", got)
	}
}

func TestAddTransitionIgnoresNonPositive(t *testing.T) {
	c := New[int]()
	c.AddTransition(1, 2, 0)
	c.AddTransition(1, 2, -0.5)
	if c.Len() != 0 {
		t.Errorf("chain has %d states, want 0 (non-positive mass ignored)", c.Len())
	}
}

func TestSuccessorsAndContains(t *testing.T) {
	c := New[string]()
	c.AddTransition("a", "c", 0.5)
	c.AddTransition("a", "b", 0.5)
	c.AddTransition("b", "a", 1)
	c.AddTransition("c", "a", 1)

	if !c.Contains("a") || c.Contains("z") {
		t.Error("Contains misreports membership")
	}
	succ := c.Successors("a")
	if len(succ) != 2 {
		t.Fatalf("Successors(a) = %v, want two states", succ)
	}
	if c.Successors("z") != nil {
		t.Error("Successors of unknown state should be nil")
	}
}

func TestProbUnknownStates(t *testing.T) {
	c := twoState(0.5, 0.5)
	if got := c.Prob("a", "zzz"); got != 0 {
		t.Errorf("Prob to unknown = %v, want 0", got)
	}
	if got := c.Prob("zzz", "a"); got != 0 {
		t.Errorf("Prob from unknown = %v, want 0", got)
	}
}

func TestIterativeConvergenceFailure(t *testing.T) {
	c := twoState(0.3, 0.1)
	_, err := c.Stationary(Options{
		Method:        Iterative,
		Tolerance:     1e-16, // tighter than float64 allows for this chain
		MaxIterations: 3,
	})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

func TestLargeChainIterative(t *testing.T) {
	// A 2000-state ring with a drift home; exercises the sparse iterative
	// path (above the dense cutoff).
	const n = 2000
	c := New[int]()
	for i := 0; i < n; i++ {
		c.AddTransition(i, (i+1)%n, 0.5)
		c.AddTransition(i, 0, 0.5)
	}
	pi, err := c.Stationary(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// pi(k) = 0.5^k * pi(0) for k >= 1 (reach k only via k consecutive
	// forward steps), with pi(0) = 0.5 by normalization... verify the
	// balance equations instead of a closed form for robustness.
	if !almostEqual(pi[1], pi[0]*0.5, 1e-9) {
		t.Errorf("pi[1] = %v, want pi[0]/2 = %v", pi[1], pi[0]*0.5)
	}
	if !almostEqual(pi[2], pi[1]*0.5, 1e-9) {
		t.Errorf("pi[2] = %v, want pi[1]/2 = %v", pi[2], pi[1]*0.5)
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += pi[i]
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("sum = %v, want 1", sum)
	}
}

func BenchmarkStationaryDense100(b *testing.B) {
	c := New[int]()
	for i := 0; i < 100; i++ {
		c.AddTransition(i, (i+1)%100, 0.6)
		c.AddTransition(i, 0, 0.4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Stationary(Options{Method: Dense, SkipChecks: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStationaryIterative2000(b *testing.B) {
	c := New[int]()
	for i := 0; i < 2000; i++ {
		c.AddTransition(i, (i+1)%2000, 0.6)
		c.AddTransition(i, 0, 0.4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Stationary(Options{Method: Iterative, SkipChecks: true}); err != nil {
			b.Fatal(err)
		}
	}
}
