package core

import (
	"math"

	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/stats"
)

// maxTrackedDistance bounds the uncle-distance histogram the model reports.
// Distances beyond it still contribute to rewards (for unbounded schedules)
// but are not individually tabulated.
const maxTrackedDistance = 32

// tailCutoff stops the closed-form lead sums once per-lead event rates fall
// below this; the rates decay geometrically with ratio alpha/beta < 1.
const tailCutoff = 1e-18

// Revenue holds the long-run average reward rates of Sec. IV-E, in units of
// the static reward per unit time (total block rate 1).
type Revenue struct {
	// PoolStatic is r_b^s, the pool's static-reward rate (Eq. 3).
	PoolStatic float64

	// HonestStatic is r_b^h, the honest static-reward rate (Eq. 4).
	HonestStatic float64

	// PoolUncle is r_u^s, the pool's uncle-reward rate (Eq. 5).
	PoolUncle float64

	// HonestUncle is r_u^h, the honest uncle-reward rate (Eq. 6).
	HonestUncle float64

	// PoolNephew is r_n^s, the pool's nephew-reward rate (Eq. 8).
	PoolNephew float64

	// HonestNephew is r_n^h, the honest nephew-reward rate (Eq. 9).
	HonestNephew float64

	// RegularRate is the creation rate of regular (main-chain) blocks.
	// With Ks = 1 it equals PoolStatic + HonestStatic.
	RegularRate float64

	// UncleRate is the creation rate of referenced uncle blocks
	// (PoolUncleRate + HonestUncleRate).
	UncleRate float64

	// PoolUncleRate and HonestUncleRate split UncleRate by the uncle's
	// miner.
	PoolUncleRate   float64
	HonestUncleRate float64

	// HonestUncleDistances[d-1] is the creation rate of honest uncles
	// that will be referenced at distance d (d = 1..maxTrackedDistance).
	// Normalizing gives the Table II distribution.
	HonestUncleDistances []float64
}

// Scenario selects the difficulty-adjustment normalization of Sec. IV-E2.
type Scenario int

// The two normalizations studied by the paper.
const (
	// Scenario1 rescales time so regular blocks appear at rate 1
	// (difficulty ignores uncles, as in Ethereum before EIP100 and in
	// Bitcoin).
	Scenario1 Scenario = iota + 1

	// Scenario2 rescales time so regular plus referenced-uncle blocks
	// appear at rate 1 (EIP100-style difficulty).
	Scenario2
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case Scenario1:
		return "scenario1"
	case Scenario2:
		return "scenario2"
	default:
		return "scenario?"
	}
}

// PoolTotal returns the pool's total reward rate.
func (r Revenue) PoolTotal() float64 {
	return r.PoolStatic + r.PoolUncle + r.PoolNephew
}

// HonestTotal returns the honest miners' total reward rate.
func (r Revenue) HonestTotal() float64 {
	return r.HonestStatic + r.HonestUncle + r.HonestNephew
}

// Total returns r_total of Eq. (10).
func (r Revenue) Total() float64 { return r.PoolTotal() + r.HonestTotal() }

// PoolShare returns R_s, the pool's relative share of all rewards.
func (r Revenue) PoolShare() float64 {
	total := r.Total()
	if total == 0 {
		return 0
	}
	return r.PoolTotal() / total
}

// normalizer returns the block rate that the scenario pins to 1.
func (r Revenue) normalizer(s Scenario) float64 {
	if s == Scenario2 {
		return r.RegularRate + r.UncleRate
	}
	return r.RegularRate
}

// PoolAbsolute returns U_s, the pool's long-run absolute revenue per unit of
// rescaled time (Eq. 11 for Scenario1 and its Scenario2 analogue).
func (r Revenue) PoolAbsolute(s Scenario) float64 {
	return r.PoolTotal() / r.normalizer(s)
}

// HonestAbsolute returns U_h (Eq. 12 and its Scenario2 analogue).
func (r Revenue) HonestAbsolute(s Scenario) float64 {
	return r.HonestTotal() / r.normalizer(s)
}

// TotalAbsolute returns the total reward rate per unit of rescaled time;
// Fig. 9 plots this soaring above 1 under scenario-1 difficulty.
func (r Revenue) TotalAbsolute(s Scenario) float64 {
	return r.Total() / r.normalizer(s)
}

// HonestUncleDistribution returns the Table II distribution: the probability
// that an honest uncle is referenced at distance d, conditioned on distances
// 1..max.
func (r Revenue) HonestUncleDistribution(max int) stats.Distribution {
	if max > len(r.HonestUncleDistances) {
		max = len(r.HonestUncleDistances)
	}
	d := stats.Distribution{P: make([]float64, max)}
	copy(d.P, r.HonestUncleDistances[:max])
	return d.Normalize()
}

// revenueTally accumulates the Appendix B per-transition expected rewards.
// Both the closed-form and the numerical revenue computations feed it the
// same event classes; they differ only in how the event rates are obtained.
type revenueTally struct {
	Revenue

	alpha, gamma float64
	schedule     rewards.Schedule
	literalEq8   bool
}

func newRevenueTally(p Params) *revenueTally {
	return &revenueTally{
		Revenue:    Revenue{HonestUncleDistances: make([]float64, maxTrackedDistance)},
		alpha:      p.Alpha,
		gamma:      p.Gamma,
		schedule:   p.Schedule,
		literalEq8: p.LiteralEq8,
	}
}

// honestNephewProb is the probability that the nephew reward of an uncle
// created with the given lead goes to honest miners:
// beta^(lead-1) * (1 + alpha*beta*(1-gamma)) (Appendix B, Case 7).
func (rt *revenueTally) honestNephewProb(lead int) float64 {
	a, b, g := rt.alpha, 1-rt.alpha, rt.gamma
	return math.Pow(b, float64(lead-1)) * (1 + a*b*(1-g))
}

// consensusEvents books the transitions out of (0,0) weighted by mass pi00
// (Cases 1 and 2).
func (rt *revenueTally) consensusEvents(pi00 float64) {
	a, b, g := rt.alpha, 1-rt.alpha, rt.gamma
	// Case 1: honest block is immediately regular.
	rt.HonestStatic += b * pi00
	rt.RegularRate += b * pi00
	// Case 2: the pool's first private block is regular w.p.
	// a + a*b + b^2*g, else an uncle at distance 1 whose nephew reward
	// goes to honest miners.
	pRegular := a + a*b + b*b*g
	rt.PoolStatic += a * pi00 * pRegular
	rt.RegularRate += a * pi00 * pRegular
	pUncle := b * b * (1 - g)
	if rt.schedule.Referenceable(1) {
		rt.PoolUncle += a * pi00 * pUncle * rt.schedule.Uncle(1)
		rt.HonestNephew += a * pi00 * pUncle * rt.schedule.Nephew(1)
		rt.UncleRate += a * pi00 * pUncle
		rt.PoolUncleRate += a * pi00 * pUncle
	}
}

// leadOneEvents books the transitions out of (1,0) weighted by mass pi10
// (Cases 3 and 4).
func (rt *revenueTally) leadOneEvents(pi10 float64) {
	a, b, g := rt.alpha, 1-rt.alpha, rt.gamma
	// Case 3: the pool's second block wins w.p. 1.
	rt.PoolStatic += a * pi10
	rt.RegularRate += a * pi10
	// Case 4: the honest block that levels the race is regular w.p.
	// b*(1-g); otherwise an uncle at distance 1. The nephew reward goes
	// to the pool w.p. a and to honest miners w.p. b*g.
	rt.HonestStatic += b * pi10 * b * (1 - g)
	rt.RegularRate += b * pi10 * b * (1 - g)
	pUncle := a + b*g
	if rt.schedule.Referenceable(1) {
		rt.HonestUncle += b * pi10 * pUncle * rt.schedule.Uncle(1)
		rt.UncleRate += b * pi10 * pUncle
		rt.HonestUncleRate += b * pi10 * pUncle
		rt.HonestUncleDistances[0] += b * pi10 * pUncle
		rt.PoolNephew += b * pi10 * a * rt.schedule.Nephew(1)
		rt.HonestNephew += b * pi10 * b * g * rt.schedule.Nephew(1)
	}
}

// tieEvents books the transition out of (1,1) weighted by mass pi11
// (Case 5).
func (rt *revenueTally) tieEvents(pi11 float64) {
	a, b := rt.alpha, 1-rt.alpha
	rt.PoolStatic += a * pi11
	rt.HonestStatic += b * pi11
	rt.RegularRate += pi11
}

// poolExtendEvents books the pool-side transitions out of all lead >= 2
// states with the given total mass (Case 6: every private-branch extension
// eventually becomes regular).
func (rt *revenueTally) poolExtendEvents(mass float64) {
	rt.PoolStatic += rt.alpha * mass
	rt.RegularRate += rt.alpha * mass
}

// honestUncleEvent books an honest-mined block that becomes an uncle with
// certainty, created at the given event rate from a state with the given
// lead (Cases 7-10). fromJ0 marks events out of (i,0) states (Cases 9-10)
// as opposed to (i,j), j >= 1 (Cases 7-8).
func (rt *revenueTally) honestUncleEvent(rate float64, lead int, fromJ0 bool) {
	if rate == 0 || !rt.schedule.Referenceable(lead) {
		return // too deep: a plain stale block
	}
	a, b, g := rt.alpha, 1-rt.alpha, rt.gamma
	rt.HonestUncle += rate * rt.schedule.Uncle(lead)
	rt.UncleRate += rate
	rt.HonestUncleRate += rate
	if lead <= maxTrackedDistance {
		rt.HonestUncleDistances[lead-1] += rate
	}
	h := rt.honestNephewProb(lead)
	rt.HonestNephew += rate * h * rt.schedule.Nephew(lead)
	if rt.literalEq8 {
		// The paper's printed Eq. (8): the double sum adds
		// beta^(L-1)*gamma*(alpha - alpha*beta^2*(1-gamma)) * Kn(L)
		// * pi per (i, j>=1) state and has no term at all for the
		// (i,0) states of Cases 9-10. With rate = beta*gamma*pi,
		// the per-state factor equals
		// rate/beta * beta^(L-1) * (a - a*b^2*(1-g)).
		if !fromJ0 {
			rt.PoolNephew += rate / b * math.Pow(b, float64(lead-1)) *
				(a - a*b*b*(1-g)) * rt.schedule.Nephew(lead)
		}
		return
	}
	// Conservation-consistent attribution: every referenced uncle grants
	// exactly one nephew reward, so the pool receives whatever honest
	// miners do not.
	rt.PoolNephew += rate * (1 - h) * rt.schedule.Nephew(lead)
}

// Revenue evaluates the reward rates exactly from the closed-form aggregate
// distribution: pi00, pi10, pi11, pi(l,0) = a^l pi00 and the fork mass
// G(l). The lead sums decay geometrically (ratio a/(1-a)) and are summed to
// numerical exhaustion, so the result carries no truncation error.
func (m *Model) Revenue() Revenue {
	var (
		a  = m.params.Alpha
		b  = 1 - a
		g  = m.params.Gamma
		rt = newRevenueTally(m.params)
	)
	pi00 := Pi00(a)
	rt.consensusEvents(pi00)
	rt.leadOneEvents(PiI0(a, 1))
	rt.tieEvents(Pi11(a))
	// Total mass at lead >= 2 is 1 - pi00 - pi10 - pi11.
	rt.poolExtendEvents(1 - pi00 - PiI0(a, 1) - Pi11(a))

	// Honest uncle-creating events per lead: rate b from the (l,0) state
	// plus rate b*g from the forked states G(l).
	for lead := 2; ; lead++ {
		rateJ0 := b * PiI0(a, lead)
		rateFork := b * g * ForkMass(a, lead)
		if rateJ0+rateFork < tailCutoff {
			break
		}
		rt.honestUncleEvent(rateJ0, lead, true)
		rt.honestUncleEvent(rateFork, lead, false)
	}
	return rt.Revenue
}

// Revenue attributes expected rewards over the truncated numerical
// stationary distribution, state by state. It inherits the truncation bias
// of the numerical solution (see DefaultMaxLead).
func (n *NumericModel) Revenue() Revenue {
	var (
		b  = 1 - n.params.Alpha
		g  = n.params.Gamma
		rt = newRevenueTally(n.params)
	)
	for _, s := range n.states {
		pi := n.pi[s]
		if pi == 0 {
			continue
		}
		switch {
		case s == start:
			rt.consensusEvents(pi)
		case s == State{S: 1}:
			rt.leadOneEvents(pi)
		case s == State{S: 1, H: 1}:
			rt.tieEvents(pi)
		case s.H == 0:
			rt.poolExtendEvents(pi)
			rt.honestUncleEvent(b*pi, s.S, true)
		default:
			rt.poolExtendEvents(pi)
			rt.honestUncleEvent(b*g*pi, s.Lead(), false)
		}
	}
	return rt.Revenue
}
