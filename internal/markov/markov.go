// Package markov implements a sparse discrete-time Markov chain and its
// stationary distribution.
//
// The paper's 2-D selfish-mining process is a uniformized continuous-time
// chain: every transition corresponds to one block-creation event and the
// total event rate is 1 everywhere, so stationary probabilities of the
// embedded discrete chain equal the continuous-time occupancy.
package markov

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

const (
	// maxSweeps bounds the Gauss–Seidel sweeps of Stationary.
	maxSweeps = 200000

	// sweepTolerance stops Stationary once a sweep changes the expected
	// visits per cycle by at most this fraction of their sum (L1).
	sweepTolerance = 1e-15

	// rowSumTolerance is the allowed deviation of outgoing probability
	// mass from 1 during validation.
	rowSumTolerance = 1e-9
)

// Errors reported by Stationary and Validate.
var (
	// ErrEmptyChain is returned when no states have been added.
	ErrEmptyChain = errors.New("markov: chain has no states")

	// ErrNotStochastic is returned when some row's outgoing probability
	// mass is not 1.
	ErrNotStochastic = errors.New("markov: transition probabilities do not sum to 1")

	// ErrReducible is returned when some state cannot reach the first
	// state added, so that state may be transient or pi not unique.
	ErrReducible = errors.New("markov: some state cannot reach the first state")

	// ErrNoConvergence is returned when the solve does not settle within
	// maxSweeps sweeps.
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

// add ensures s is a state of the chain and returns its dense index.
func (c *Chain[S]) add(s S) int {
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
	fi := c.add(from)
	ti := c.add(to)
	for k := range c.out[fi] {
		if c.out[fi][k].to == ti {
			c.out[fi][k].p += p
			return
		}
	}
	c.out[fi] = append(c.out[fi], edge{to: ti, p: p})
}

// States returns a copy of the state list in insertion order.
func (c *Chain[S]) States() []S {
	out := make([]S, len(c.state))
	copy(out, c.state)
	return out
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

// Stationary validates the chain and computes its stationary distribution
// pi = pi P.
//
// The solve is regenerative at the first state added, which every state
// must reach (ErrReducible otherwise); states it cannot reach are then
// transient and get no mass, so pi is unique. Fixing the first state at one
// visit per cycle, every other state j's expected visits per cycle satisfy
// v(j) = sum_i v(i) P(i,j). Gauss–Seidel sweeps over the in-edges until a
// sweep changes v by at most sweepTolerance of its sum, and pi is v
// normalised. The sum is the expected return time to the first state, so
// pi of that state is its reciprocal (Kac's formula).
func (c *Chain[S]) Stationary() (map[S]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c.state)
	// In-edges in CSR form: those of state j are src/prob[first[j]:
	// first[j+1]]. Self-loops go to stay instead, which Gauss–Seidel
	// solves for exactly.
	first := make([]int, n+1)
	stay := make([]float64, n)
	for from, edges := range c.out {
		for _, e := range edges {
			if e.to == from {
				stay[from] = e.p
			} else {
				first[e.to+1]++
			}
		}
	}
	for j := 1; j <= n; j++ {
		first[j] += first[j-1]
	}
	next := append([]int(nil), first[:n]...)
	src := make([]int, first[n])
	prob := make([]float64, first[n])
	for from, edges := range c.out {
		for _, e := range edges {
			if e.to != from {
				src[next[e.to]], prob[next[e.to]] = from, e.p
				next[e.to]++
			}
		}
	}

	// Search backwards from state 0 for the states that reach it.
	reaches := make([]bool, n)
	reaches[0] = true
	stack, count := []int{0}, 1
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range src[first[j]:first[j+1]] {
			if !reaches[i] {
				reaches[i] = true
				count++
				stack = append(stack, i)
			}
		}
	}
	if count < n {
		return nil, ErrReducible
	}

	v := make([]float64, n)
	v[0] = 1
	for sweep := 0; sweep < maxSweeps; sweep++ {
		total, delta := 1.0, 0.0
		for j := 1; j < n; j++ {
			var in float64
			for k := first[j]; k < first[j+1]; k++ {
				in += v[src[k]] * prob[k]
			}
			in /= 1 - stay[j]
			delta += math.Abs(in - v[j])
			total += in
			v[j] = in
		}
		if delta <= sweepTolerance*total {
			pi := make(map[S]float64, n)
			for i, visits := range v {
				pi[c.state[i]] = visits / total
			}
			return pi, nil
		}
	}
	return nil, fmt.Errorf("after %d sweeps: %w", maxSweeps, ErrNoConvergence)
}
