// Package markov implements a sparse discrete-time Markov chain engine with
// stationary-distribution solvers.
//
// The paper's 2-D selfish-mining process is a uniformized continuous-time
// chain: every transition corresponds to one block-creation event and the
// total event rate is 1 everywhere, so stationary probabilities of the
// embedded discrete chain equal the continuous-time occupancy. The engine is
// deliberately generic (any comparable state type) so the same machinery
// drives the paper's chain, the Eyal-Sirer baseline, and the small chains
// used in tests.
package markov

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Default solver parameters.
const (
	// DefaultTolerance is the L1 convergence threshold for the iterative
	// solver.
	DefaultTolerance = 1e-13

	// DefaultMaxIterations bounds the iterative solver.
	DefaultMaxIterations = 200000

	// denseLimit is the largest state count solved by dense elimination
	// when no method is forced.
	denseLimit = 400

	// rowSumTolerance is the allowed deviation of outgoing probability
	// mass from 1 during validation.
	rowSumTolerance = 1e-9
)

// Errors reported by the solvers.
var (
	// ErrEmptyChain is returned when no states have been added.
	ErrEmptyChain = errors.New("markov: chain has no states")

	// ErrNotStochastic is returned when some row's outgoing probability
	// mass is not 1.
	ErrNotStochastic = errors.New("markov: transition probabilities do not sum to 1")

	// ErrReducible is returned when the chain is not irreducible, so the
	// stationary distribution is not unique.
	ErrReducible = errors.New("markov: chain is not irreducible")

	// ErrNoConvergence is returned when the iterative solver does not
	// reach the tolerance within the iteration budget.
	ErrNoConvergence = errors.New("markov: iteration did not converge")
)

type edge struct {
	to int
	p  float64
}

// Chain is a discrete-time Markov chain over states of type S. The zero
// value is not usable; construct with New.
type Chain[S comparable] struct {
	index map[S]int
	state []S
	out   [][]edge
}

// New returns an empty chain.
func New[S comparable]() *Chain[S] {
	return &Chain[S]{index: make(map[S]int)}
}

// AddState ensures s is a state of the chain and returns its dense index.
func (c *Chain[S]) AddState(s S) int {
	if i, seen := c.index[s]; seen {
		return i
	}
	i := len(c.state)
	c.index[s] = i
	c.state = append(c.state, s)
	c.out = append(c.out, nil)
	return i
}

// AddTransition adds probability mass p to the transition from one state to
// another, creating states as needed. Repeated calls for the same pair
// accumulate. Non-positive mass is ignored.
func (c *Chain[S]) AddTransition(from, to S, p float64) {
	if p <= 0 {
		return
	}
	fi := c.AddState(from)
	ti := c.AddState(to)
	for k := range c.out[fi] {
		if c.out[fi][k].to == ti {
			c.out[fi][k].p += p
			return
		}
	}
	c.out[fi] = append(c.out[fi], edge{to: ti, p: p})
}

// Len returns the number of states.
func (c *Chain[S]) Len() int { return len(c.state) }

// States returns a copy of the state list in insertion order.
func (c *Chain[S]) States() []S {
	out := make([]S, len(c.state))
	copy(out, c.state)
	return out
}

// Contains reports whether s is a state of the chain.
func (c *Chain[S]) Contains(s S) bool {
	_, seen := c.index[s]
	return seen
}

// Prob returns the one-step transition probability from one state to
// another, or 0 when either state is unknown.
func (c *Chain[S]) Prob(from, to S) float64 {
	fi, seenFrom := c.index[from]
	ti, seenTo := c.index[to]
	if !seenFrom || !seenTo {
		return 0
	}
	for _, e := range c.out[fi] {
		if e.to == ti {
			return e.p
		}
	}
	return 0
}

// Successors returns the states reachable in one step from s with positive
// probability, in a deterministic order.
func (c *Chain[S]) Successors(s S) []S {
	fi, seen := c.index[s]
	if !seen {
		return nil
	}
	succ := make([]S, 0, len(c.out[fi]))
	idx := make([]int, 0, len(c.out[fi]))
	for _, e := range c.out[fi] {
		idx = append(idx, e.to)
	}
	sort.Ints(idx)
	for _, i := range idx {
		succ = append(succ, c.state[i])
	}
	return succ
}

// Validate checks that every state's outgoing probability mass is 1 within
// tolerance. It wraps ErrNotStochastic with the offending state.
func (c *Chain[S]) Validate() error {
	if len(c.state) == 0 {
		return ErrEmptyChain
	}
	for i, edges := range c.out {
		var sum float64
		for _, e := range edges {
			sum += e.p
		}
		if math.Abs(sum-1) > rowSumTolerance {
			return fmt.Errorf("state %v has outgoing mass %v: %w",
				c.state[i], sum, ErrNotStochastic)
		}
	}
	return nil
}

// IsIrreducible reports whether every state can reach every other state.
// It runs one forward reachability pass from state 0 on the graph and one
// on the reversed graph; the chain is irreducible iff both passes reach all
// states.
func (c *Chain[S]) IsIrreducible() bool {
	n := len(c.state)
	if n == 0 {
		return false
	}
	forward := make([][]int, n)
	backward := make([][]int, n)
	for from, edges := range c.out {
		for _, e := range edges {
			forward[from] = append(forward[from], e.to)
			backward[e.to] = append(backward[e.to], from)
		}
	}
	return reachesAll(forward, 0) && reachesAll(backward, 0)
}

func reachesAll(adj [][]int, start int) bool {
	seen := make([]bool, len(adj))
	stack := []int{start}
	seen[start] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == len(adj)
}

// Method selects a stationary-distribution algorithm.
type Method int

// Solver methods. Auto picks dense elimination for small chains and the
// iterative solver otherwise.
const (
	Auto Method = iota + 1
	Dense
	Iterative
)

// Options configures Stationary.
type Options struct {
	// Method selects the algorithm; the zero value means Auto.
	Method Method

	// Tolerance is the L1 convergence threshold for the iterative
	// solver; the zero value means DefaultTolerance.
	Tolerance float64

	// MaxIterations bounds the iterative solver; the zero value means
	// DefaultMaxIterations.
	MaxIterations int

	// SkipChecks disables the stochasticity and irreducibility
	// validation, for callers that construct chains known to be valid
	// (e.g. in benchmarks).
	SkipChecks bool
}

// Stationary computes the unique stationary distribution pi with pi = pi P.
func (c *Chain[S]) Stationary(opts Options) (map[S]float64, error) {
	if len(c.state) == 0 {
		return nil, ErrEmptyChain
	}
	if !opts.SkipChecks {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if !c.IsIrreducible() {
			return nil, ErrReducible
		}
	}
	method := opts.Method
	if method == 0 || method == Auto {
		if len(c.state) <= denseLimit {
			method = Dense
		} else {
			method = Iterative
		}
	}

	var (
		pi  []float64
		err error
	)
	switch method {
	case Dense:
		pi, err = c.stationaryDense()
	case Iterative:
		pi, err = c.stationaryIterative(opts)
	default:
		return nil, fmt.Errorf("markov: unknown method %d", method)
	}
	if err != nil {
		return nil, err
	}

	result := make(map[S]float64, len(pi))
	for i, p := range pi {
		result[c.state[i]] = p
	}
	return result, nil
}

// stationaryDense solves (P^T - I) pi = 0 with the normalization
// sum(pi) = 1 by Gaussian elimination with partial pivoting. Suitable for
// chains up to a few hundred states.
func (c *Chain[S]) stationaryDense() ([]float64, error) {
	n := len(c.state)
	// Build A = P^T - I, then replace the last equation with sum(pi)=1.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
		a[i][i] = -1
	}
	for from, edges := range c.out {
		for _, e := range edges {
			a[e.to][from] += e.p
		}
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	a[n-1][n] = 1

	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return nil, fmt.Errorf("markov: singular system at column %d: %w",
				col, ErrReducible)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			factor := a[r][col] * inv
			if factor == 0 {
				continue
			}
			for k := col; k <= n; k++ {
				a[r][k] -= factor * a[col][k]
			}
		}
	}
	pi := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := a[i][n]
		for k := i + 1; k < n; k++ {
			sum -= a[i][k] * pi[k]
		}
		pi[i] = sum / a[i][i]
	}
	clampAndNormalize(pi)
	return pi, nil
}

// stationaryIterative runs damped power iteration,
// pi <- (pi + pi P) / 2, which converges for any irreducible chain
// (the damping makes periodic chains aperiodic without changing the
// stationary distribution).
func (c *Chain[S]) stationaryIterative(opts Options) ([]float64, error) {
	tol := opts.Tolerance
	if tol <= 0 {
		tol = DefaultTolerance
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}

	n := len(c.state)
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		for from, edges := range c.out {
			mass := pi[from]
			if mass == 0 {
				continue
			}
			for _, e := range edges {
				next[e.to] += mass * e.p
			}
		}
		var delta float64
		for i := range next {
			next[i] = (next[i] + pi[i]) / 2
			delta += math.Abs(next[i] - pi[i])
		}
		pi, next = next, pi
		if delta < tol {
			clampAndNormalize(pi)
			return pi, nil
		}
	}
	return nil, fmt.Errorf("after %d iterations: %w", maxIter, ErrNoConvergence)
}

// clampAndNormalize removes tiny negative round-off and rescales to sum 1.
func clampAndNormalize(pi []float64) {
	var sum float64
	for i, p := range pi {
		if p < 0 {
			pi[i] = 0
			continue
		}
		sum += p
	}
	if sum <= 0 {
		return
	}
	for i := range pi {
		pi[i] /= sum
	}
}
