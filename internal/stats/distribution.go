package stats

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Counter tallies occurrences of small non-negative integer outcomes, such
// as uncle reference distances. The zero value is ready to use.
type Counter struct {
	counts map[int]int64
	total  int64
}

// Observe records one occurrence of outcome k.
func (c *Counter) Observe(k int) { c.ObserveN(k, 1) }

// ObserveN records n occurrences of outcome k.
func (c *Counter) ObserveN(k int, n int64) {
	if n == 0 {
		return
	}
	if c.counts == nil {
		c.counts = make(map[int]int64)
	}
	c.counts[k] += n
	c.total += n
}

// Total returns the number of recorded observations.
func (c *Counter) Total() int64 { return c.total }

// Count returns the number of occurrences of outcome k.
func (c *Counter) Count(k int) int64 { return c.counts[k] }

// Outcomes returns the observed outcomes in increasing order.
func (c *Counter) Outcomes() []int {
	keys := make([]int, 0, len(c.counts))
	for k := range c.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Mean returns the expectation of the empirical distribution.
func (c *Counter) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	var sum float64
	for k, n := range c.counts {
		sum += float64(k) * float64(n)
	}
	return sum / float64(c.total)
}

// Distribution returns the normalized probability mass over outcomes
// 1..max inclusive, renormalized to sum to one over that range (outcomes
// outside the range are dropped). This mirrors how the paper reports
// Table II: distances 1-6 normalized over observed uncles in that range.
func (c *Counter) Distribution(max int) Distribution {
	d := Distribution{P: make([]float64, max)}
	var inRange int64
	for k, n := range c.counts {
		if k >= 1 && k <= max {
			inRange += n
		}
	}
	if inRange == 0 {
		return d
	}
	for k, n := range c.counts {
		if k >= 1 && k <= max {
			d.P[k-1] = float64(n) / float64(inRange)
		}
	}
	return d
}

// Merge combines another counter into c.
func (c *Counter) Merge(other *Counter) {
	for k, n := range other.counts {
		c.ObserveN(k, n)
	}
}

// MarshalJSON encodes the counter as [[outcome, count], ...] sorted by
// outcome, or null for the zero counter (see AppendJSON). The encoding
// round-trips exactly: a decoded counter is reflect.DeepEqual to the
// original, which the result cache's disk journal relies on for
// bit-identical cache hits.
func (c Counter) MarshalJSON() ([]byte, error) {
	return c.AppendJSON(nil), nil
}

// AppendJSON appends the MarshalJSON form to b. Outcomes are sorted on the
// stack, so beyond growing b it allocates nothing for counters of up to 64
// outcomes (every uncle-distance counter: the reference window is at most
// 64).
func (c *Counter) AppendJSON(b []byte) []byte {
	if c.counts == nil {
		return append(b, "null"...)
	}
	var stack [64]int
	keys := stack[:0]
	for k := range c.counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '[')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(k), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, c.counts[k], 10)
		b = append(b, ']')
	}
	return append(b, ']')
}

// UnmarshalJSON decodes the MarshalJSON form: null is the zero counter,
// and a pair list goes through CounterFromPairs.
func (c *Counter) UnmarshalJSON(data []byte) error {
	*c = Counter{}
	var pairs [][2]int64
	if err := json.Unmarshal(data, &pairs); err != nil {
		return fmt.Errorf("stats: decoding counter: %w", err)
	}
	if pairs == nil {
		return nil
	}
	var err error
	*c, err = CounterFromPairs(pairs)
	return err
}

// CounterFromPairs builds the counter whose MarshalJSON form is the given
// [outcome, count] list, rejecting non-positive counts and duplicate
// outcomes (which could not have been produced by observations). Like a
// decoded [], an empty list yields an empty counter that is not the zero
// (null) counter.
func CounterFromPairs(pairs [][2]int64) (Counter, error) {
	c := Counter{counts: make(map[int]int64, len(pairs))}
	for _, p := range pairs {
		k, n := int(p[0]), p[1]
		if n <= 0 {
			return Counter{}, fmt.Errorf("stats: counter outcome %d has non-positive count %d", k, n)
		}
		if _, dup := c.counts[k]; dup {
			return Counter{}, fmt.Errorf("stats: counter outcome %d duplicated", k)
		}
		c.counts[k] = n
		c.total += n
	}
	return c, nil
}

// Distribution is a probability mass function over outcomes 1..len(P),
// with P[k-1] the probability of outcome k.
type Distribution struct {
	P []float64
}

// Mean returns the expectation of the distribution.
func (d Distribution) Mean() float64 {
	var sum float64
	for i, p := range d.P {
		sum += float64(i+1) * p
	}
	return sum
}

// Sum returns the total probability mass (1 for a proper distribution).
func (d Distribution) Sum() float64 {
	var sum float64
	for _, p := range d.P {
		sum += p
	}
	return sum
}

// Normalize returns a copy scaled so the mass sums to one. A zero-mass
// distribution is returned unchanged.
func (d Distribution) Normalize() Distribution {
	total := d.Sum()
	out := Distribution{P: make([]float64, len(d.P))}
	if total == 0 {
		copy(out.P, d.P)
		return out
	}
	for i, p := range d.P {
		out.P[i] = p / total
	}
	return out
}

// TotalVariation returns the total-variation distance to another
// distribution, 0.5 * sum |p_i - q_i|, padding the shorter with zeros.
func (d Distribution) TotalVariation(other Distribution) float64 {
	n := len(d.P)
	if len(other.P) > n {
		n = len(other.P)
	}
	var sum float64
	for i := 0; i < n; i++ {
		var p, q float64
		if i < len(d.P) {
			p = d.P[i]
		}
		if i < len(other.P) {
			q = other.P[i]
		}
		diff := p - q
		if diff < 0 {
			diff = -diff
		}
		sum += diff
	}
	return sum / 2
}

// String renders the distribution compactly, e.g. "[1:0.527 2:0.295 ...]".
func (d Distribution) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, p := range d.P {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.3f", i+1, p)
	}
	b.WriteByte(']')
	return b.String()
}
