package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/ethselfish/ethselfish/internal/markov"
	"github.com/ethselfish/ethselfish/internal/rewards"
)

// DefaultMaxLead is the default truncation of the numerical chain solution:
// states with private branch length above this bound fold their pool
// transition into themselves. The paper truncates at 200 (footnote 3). Note
// that at small gamma the stationary mass wanders far along the (i,j)
// diagonal even though the lead distribution stays geometric, so the
// numerical solution carries a visible truncation bias for gamma close to 0
// with alpha close to 0.5; the closed-form Model has no truncation at all.
const DefaultMaxLead = 160

// Errors returned by the model constructors.
var (
	// ErrBadAlpha is returned when alpha is outside (0, 0.5). At and
	// above 0.5 the private branch grows without bound and the chain has
	// no stationary distribution (the pool simply 51%-attacks).
	ErrBadAlpha = errors.New("core: alpha must lie in (0, 0.5)")

	// ErrBadGamma is returned when gamma is outside [0, 1].
	ErrBadGamma = errors.New("core: gamma must lie in [0, 1]")
)

// Params configures the analytic model.
type Params struct {
	// Alpha is the selfish pool's fraction of total hash power.
	Alpha float64

	// Gamma is the fraction of honest hash power that mines on the
	// pool's branch during a tie (Sec. IV-A).
	Gamma float64

	// Schedule gives the uncle and nephew reward functions. The zero
	// value means the Ethereum Byzantium schedule.
	Schedule rewards.Schedule

	// MaxLead truncates the state space of the numerical solution
	// (NewNumeric); zero means DefaultMaxLead. The closed-form Model
	// ignores it except as the bound for Stationary dumps.
	MaxLead int

	// LiteralEq8 reproduces the paper's Eq. (8) pool-nephew coefficient
	// verbatim instead of Appendix B's conservation-consistent attribution,
	// which the simulator confirms. The two differ from lead 3 on
	// (TestLiteralEq8UndercountsPoolNephew).
	LiteralEq8 bool
}

func (p Params) withDefaults() Params {
	if p.MaxLead == 0 {
		p.MaxLead = DefaultMaxLead
	}
	if p.Schedule.MaxDepth() == 0 {
		// The zero-value Schedule: fall back to Ethereum's.
		p.Schedule = rewards.Ethereum()
	}
	return p
}

func (p Params) validate() error {
	if math.IsNaN(p.Alpha) || !(p.Alpha > 0 && p.Alpha < 0.5) {
		return fmt.Errorf("alpha %v: %w", p.Alpha, ErrBadAlpha)
	}
	if math.IsNaN(p.Gamma) || p.Gamma < 0 || p.Gamma > 1 {
		return fmt.Errorf("gamma %v: %w", p.Gamma, ErrBadGamma)
	}
	if p.MaxLead < 4 {
		return fmt.Errorf("core: MaxLead %d too small (need >= 4)", p.MaxLead)
	}
	return nil
}

// Model is the exact closed-form analysis for one (alpha, gamma, schedule)
// configuration. It is immutable and safe for concurrent use.
type Model struct {
	params Params
}

// New validates the parameters and returns the closed-form model.
func New(params Params) (*Model, error) {
	params = params.withDefaults()
	if err := params.validate(); err != nil {
		return nil, err
	}
	return &Model{params: params}, nil
}

// Params returns the model's configuration (with defaults applied).
func (m *Model) Params() Params { return m.params }

// Pi returns the exact stationary probability of state s from the closed
// forms of Sec. IV-C (zero for invalid states).
func (m *Model) Pi(s State) float64 {
	if !s.Valid() {
		return 0
	}
	switch {
	case s == start:
		return Pi00(m.params.Alpha)
	case s == State{S: 1, H: 1}:
		return Pi11(m.params.Alpha)
	case s.H == 0:
		return PiI0(m.params.Alpha, s.S)
	default:
		return PiIJ(m.params.Alpha, m.params.Gamma, s.S, s.H)
	}
}

// LeadProb returns the total stationary probability of all states with the
// given lead Ls - Lh (lead 0 aggregates (0,0) and (1,1)).
func (m *Model) LeadProb(lead int) float64 {
	return LeadProb(m.params.Alpha, lead)
}

// ForkMass returns G(lead) = sum_{j>=1} pi(lead+j, j).
func (m *Model) ForkMass(lead int) float64 {
	return ForkMass(m.params.Alpha, lead)
}

// NumericModel is the truncated numerical solution of the same chain
// (the computation the paper describes in footnote 3). It exists to
// cross-validate the closed forms and to expose the full per-state
// distribution.
type NumericModel struct {
	params Params
	states []State // the chain's state order, so sums over pi are deterministic
	pi     map[State]float64
}

// NewNumeric builds the Markov chain of Fig. 7 truncated at
// params.MaxLead, solves its stationary distribution, and returns the
// model.
func NewNumeric(params Params) (*NumericModel, error) {
	params = params.withDefaults()
	if err := params.validate(); err != nil {
		return nil, err
	}
	chain := BuildChain(params.Alpha, params.Gamma, params.MaxLead)
	pi, err := chain.Stationary()
	if err != nil {
		return nil, fmt.Errorf("core: solving stationary distribution: %w", err)
	}
	return &NumericModel{params: params, states: chain.States(), pi: pi}, nil
}

// BuildChain constructs the transition matrix of Sec. IV-C. States with
// S == maxLead absorb their own pool transition (truncation). It is
// exported for the Fig. 7 experiment, which dumps the chain structure.
func BuildChain(alpha, gamma float64, maxLead int) *markov.Chain[State] {
	var (
		a = alpha
		b = 1 - alpha
		g = gamma
	)
	c := markov.New[State]()

	// (0,0): honest block keeps consensus; pool block starts a private
	// branch.
	c.AddTransition(start, start, b)
	c.AddTransition(start, State{S: 1}, a)

	// (1,0): pool extends its lead; honest block forces the pool to
	// publish, creating the tie state (1,1).
	c.AddTransition(State{S: 1}, State{S: 2}, a)
	c.AddTransition(State{S: 1}, State{S: 1, H: 1}, b)

	// (1,1): whoever mines next resolves the tie and consensus resets.
	c.AddTransition(State{S: 1, H: 1}, start, 1)

	for i := 2; i <= maxLead; i++ {
		for j := 0; j <= i-2; j++ {
			s := State{S: i, H: j}
			// Pool block: lead grows (folded at the truncation
			// boundary).
			if i < maxLead {
				c.AddTransition(s, State{S: i + 1, H: j}, a)
			} else {
				c.AddTransition(s, s, a)
			}
			switch {
			case i-j == 2:
				// Honest block at lead 2: the pool publishes
				// everything and consensus resets (Cases 8, 9,
				// 12).
				c.AddTransition(s, start, b)
			case j == 0:
				// Honest block on the consensus tip, which is a
				// prefix of the private branch (Case 10).
				c.AddTransition(s, State{S: i, H: 1}, b)
			default:
				// Honest block either on a published prefix of
				// the private branch (Case 7) or on a public
				// branch off the private chain (Case 11).
				c.AddTransition(s, State{S: i - j, H: 1}, b*g)
				c.AddTransition(s, State{S: i, H: j + 1}, b*(1-g))
			}
		}
	}
	return c
}

// Params returns the numerical model's configuration.
func (n *NumericModel) Params() Params { return n.params }

// Pi returns the numerically solved stationary probability of state s (zero
// for states outside the truncated space).
func (n *NumericModel) Pi(s State) float64 { return n.pi[s] }

// Stationary returns a copy of the full truncated stationary distribution.
func (n *NumericModel) Stationary() map[State]float64 {
	out := make(map[State]float64, len(n.pi))
	for s, p := range n.pi {
		out[s] = p
	}
	return out
}
