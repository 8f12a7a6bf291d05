// Package core implements the paper's primary contribution: the 2-D Markov
// analysis of selfish mining in Ethereum (Niu & Feng, ICDCS 2019).
//
// The system state is the pair (Ls, Lh): the length of the selfish pool's
// private branch and the common length of the public branches (Sec. IV-B).
// Block-creation events drive a discrete-time Markov chain over this state
// space (total event rate is normalized to 1, so the embedded chain's
// stationary distribution equals time-average occupancy). Expected static,
// uncle, and nephew rewards are attributed to each block at its creation
// transition, following the probabilistic tracking of Appendix B.
package core

import (
	"fmt"
	"strconv"
	"strings"
)

// State is one state (Ls, Lh) of the selfish-mining Markov process.
type State struct {
	// S is Ls, the private branch length seen by the selfish pool.
	S int

	// H is Lh, the public branch length seen by honest miners.
	H int
}

// Lead returns the pool's advantage Ls - Lh.
func (s State) Lead() int { return s.S - s.H }

// Valid reports whether s belongs to the paper's state space: (0,0), (1,0),
// (1,1), or (i,j) with i-j >= 2 and j >= 0 (Sec. IV-B).
func (s State) Valid() bool {
	switch {
	case s.S < 0 || s.H < 0:
		return false
	case s == State{}:
		return true
	case s.S == 1 && (s.H == 0 || s.H == 1):
		return true
	default:
		return s.Lead() >= 2
	}
}

// String implements fmt.Stringer.
func (s State) String() string { return fmt.Sprintf("(%d,%d)", s.S, s.H) }

// AppendText appends the state's "s,h" text form to b: the one place a
// state's key text is formatted.
func (s State) AppendText(b []byte) ([]byte, error) {
	b = strconv.AppendInt(b, int64(s.S), 10)
	b = append(b, ',')
	return strconv.AppendInt(b, int64(s.H), 10), nil
}

// MarshalText encodes the state as "s,h" (see AppendText), making State
// usable as a JSON map key. The result journal's row encoder calls
// AppendText itself and writes the bytes encoding/json writes through
// MarshalText.
func (s State) MarshalText() ([]byte, error) {
	return s.AppendText(nil)
}

// UnmarshalText decodes the "s,h" form produced by MarshalText.
func (s *State) UnmarshalText(text []byte) error {
	a, b, ok := strings.Cut(string(text), ",")
	if !ok {
		return fmt.Errorf("core: state %q is not of the form s,h", text)
	}
	sv, err := strconv.Atoi(a)
	if err != nil {
		return fmt.Errorf("core: state %q: %w", text, err)
	}
	hv, err := strconv.Atoi(b)
	if err != nil {
		return fmt.Errorf("core: state %q: %w", text, err)
	}
	s.S, s.H = sv, hv
	return nil
}

// start is the consensus state (0,0).
var start = State{}
