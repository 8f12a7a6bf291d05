package resultcache

import (
	"bytes"
	"fmt"
	"strconv"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/stats"
)

// parseRow strictly decodes one journal row line (without its newline)
// into row. It is the journal's only row decoder: schema-specific and
// reflection-free, where encoding/json spends most of a row's decode on
// reflection (TextUnmarshaler map keys, the Counter re-entering
// json.Unmarshal).
//
// It accepts a strict subset of what strictUnmarshal (encoding/json with
// unknown fields and trailing data rejected) accepts, and every line it
// accepts decodes to a value reflect.DeepEqual to the oracle's:
//   - the compact form json.Marshal writes: no whitespace between tokens,
//     no string escapes, ASCII-only strings;
//   - exact-case field names, each at most once, in any order (absent
//     fields stay zero);
//   - number literals of JSON's grammar, converted with strconv exactly as
//     encoding/json converts them, so int fields reject non-integers and
//     out-of-range values;
//   - null only where json.Marshal writes it (slices, maps, counters),
//     kept distinct from [] and {};
//   - occupancy keys exactly as core.State.MarshalText writes them, each
//     once per map;
//   - counters as [outcome, count] pairs under stats.CounterFromPairs.
//
// Result.Occupancy is left nil; callers restore it with RestoreAliases.
func parseRow(line []byte, row *journalRow) error {
	*row = journalRow{}
	p := &parser{data: line}
	err := p.fields(func(name []byte) (uint, error) {
		switch string(name) {
		case "key":
			s, err := p.str()
			row.Key = string(s)
			return 0, err
		case "seed":
			return 1, p.uint64(&row.Seed)
		case "result":
			return 2, p.result(&row.Result)
		}
		return 0, p.unknown(name)
	})
	if err == nil && p.pos != len(p.data) {
		err = p.errorf("trailing data after the row")
	}
	return err
}

// parser is a cursor over one journal line.
type parser struct {
	data  []byte
	pos   int
	pairs [][2]int64 // scratch for counter pairs
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) unknown(name []byte) error {
	return p.errorf("unknown field %q", name)
}

// consume advances past c if it is the next byte.
func (p *parser) consume(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(c byte) error {
	if !p.consume(c) {
		return p.errorf("expected %q", c)
	}
	return nil
}

// literal advances past lit if it comes next.
func (p *parser) literal(lit string) bool {
	if bytes.HasPrefix(p.data[p.pos:], []byte(lit)) {
		p.pos += len(lit)
		return true
	}
	return false
}

// str returns the next string's contents, which must be printable ASCII
// without escapes (so they are their own decoding).
func (p *parser) str() ([]byte, error) {
	if err := p.expect('"'); err != nil {
		return nil, err
	}
	rest := p.data[p.pos:]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return nil, p.errorf("unterminated string")
	}
	s := rest[:end]
	for _, c := range s {
		if c < 0x20 || c >= 0x7f || c == '\\' {
			return nil, p.errorf("string holds an escape or a non-printable byte")
		}
	}
	p.pos += end + 1
	return s, nil
}

// number returns the next number literal, checked against JSON's grammar
// (which strconv alone would not enforce: it takes "+1" and "01").
func (p *parser) number() ([]byte, error) {
	d, start := p.data, p.pos
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		return nil, p.errorf("expected a number")
	}
	if i < len(d) && d[i] == '.' {
		if i = digits(d, i+1); d[i-1] == '.' {
			return nil, p.errorf("number has no digits after its decimal point")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			return nil, p.errorf("number has no exponent digits")
		}
		i = j
	}
	p.pos = i
	return d[start:i], nil
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

func (p *parser) float(dst *float64) error {
	lit, err := p.number()
	if err != nil {
		return err
	}
	if *dst, err = strconv.ParseFloat(string(lit), 64); err != nil {
		return p.errorf("%v", err)
	}
	return nil
}

func (p *parser) int(dst *int) error {
	lit, err := p.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return p.errorf("%v", err)
	}
	*dst = int(n)
	return nil
}

func (p *parser) int64(dst *int64) error {
	lit, err := p.number()
	if err != nil {
		return err
	}
	if *dst, err = strconv.ParseInt(string(lit), 10, 64); err != nil {
		return p.errorf("%v", err)
	}
	return nil
}

func (p *parser) uint64(dst *uint64) error {
	lit, err := p.number()
	if err != nil {
		return err
	}
	if *dst, err = strconv.ParseUint(string(lit), 10, 64); err != nil {
		return p.errorf("%v", err)
	}
	return nil
}

func (p *parser) bool(dst *bool) error {
	switch {
	case p.literal("true"):
		*dst = true
	case p.literal("false"):
		*dst = false
	default:
		return p.errorf("expected a boolean")
	}
	return nil
}

// object parses an object, calling member for each name with the cursor
// on its value; member must consume the value.
func (p *parser) object(member func(name []byte) error) error {
	if err := p.expect('{'); err != nil {
		return err
	}
	if p.consume('}') {
		return nil
	}
	for {
		name, err := p.str()
		if err != nil {
			return err
		}
		if err := p.expect(':'); err != nil {
			return err
		}
		if err := member(name); err != nil {
			return err
		}
		if !p.consume(',') {
			return p.expect('}')
		}
	}
}

// fields is object for a struct: member decodes a known field and returns
// its bit (distinct per field), which rejects a field named twice.
func (p *parser) fields(member func(name []byte) (uint, error)) error {
	var seen uint32
	return p.object(func(name []byte) error {
		bit, err := member(name)
		if err != nil {
			return err
		}
		if seen&(1<<bit) != 0 {
			return p.errorf("duplicate field %q", name)
		}
		seen |= 1 << bit
		return nil
	})
}

// array parses null or an array, calling elem for each element.
func (p *parser) array(elem func() error) (null bool, err error) {
	if p.literal("null") {
		return true, nil
	}
	if err := p.expect('['); err != nil {
		return false, err
	}
	if p.consume(']') {
		return false, nil
	}
	for {
		if err := elem(); err != nil {
			return false, err
		}
		if !p.consume(',') {
			return false, p.expect(']')
		}
	}
}

// decodeList decodes null (a nil slice) or an array of elements into *dst; []
// yields an empty non-nil slice, as with encoding/json.
func decodeList[T any](p *parser, dst *[]T, elem func(*T) error) error {
	s := []T{}
	null, err := p.array(func() error {
		var zero T
		s = append(s, zero)
		return elem(&s[len(s)-1])
	})
	if err == nil && !null {
		*dst = s
	}
	return err
}

func (p *parser) result(r *sim.Result) error {
	return p.fields(func(name []byte) (uint, error) {
		switch string(name) {
		case "Alpha":
			return 0, p.float(&r.Alpha)
		case "Blocks":
			return 1, p.int(&r.Blocks)
		case "Pool":
			return 2, p.reward(&r.Pool)
		case "Honest":
			return 3, p.reward(&r.Honest)
		case "ByPool":
			return 4, decodeList(p, &r.ByPool, p.reward)
		case "MinerRewards":
			return 5, decodeList(p, &r.MinerRewards, p.reward)
		case "MinerSeen":
			return 6, decodeList(p, &r.MinerSeen, p.bool)
		case "RegularCount":
			return 7, p.int(&r.RegularCount)
		case "UncleCount":
			return 8, p.int(&r.UncleCount)
		case "StaleCount":
			return 9, p.int(&r.StaleCount)
		case "PoolUncleDistances":
			return 10, p.counter(&r.PoolUncleDistances)
		case "HonestUncleDistances":
			return 11, p.counter(&r.HonestUncleDistances)
		case "EventsByPool":
			return 12, decodeList(p, &r.EventsByPool, p.int64)
		case "OccupancyByPool":
			return 13, decodeList(p, &r.OccupancyByPool, p.occupancy)
		case "Elapsed":
			return 14, p.float(&r.Elapsed)
		case "SettledTime":
			return 15, p.float(&r.SettledTime)
		case "InitialDifficulty":
			return 16, p.float(&r.InitialDifficulty)
		case "FinalDifficulty":
			return 17, p.float(&r.FinalDifficulty)
		case "Retargets":
			return 18, p.int(&r.Retargets)
		case "Early":
			return 19, p.window(&r.Early)
		case "Steady":
			return 20, p.window(&r.Steady)
		}
		return 0, p.unknown(name)
	})
}

func (p *parser) reward(r *chain.Reward) error {
	return p.fields(func(name []byte) (uint, error) {
		switch string(name) {
		case "Static":
			return 0, p.float(&r.Static)
		case "Uncle":
			return 1, p.float(&r.Uncle)
		case "Nephew":
			return 2, p.float(&r.Nephew)
		}
		return 0, p.unknown(name)
	})
}

func (p *parser) window(w *sim.Window) error {
	return p.fields(func(name []byte) (uint, error) {
		switch string(name) {
		case "Start":
			return 0, p.float(&w.Start)
		case "End":
			return 1, p.float(&w.End)
		case "Regular":
			return 2, p.int(&w.Regular)
		case "Uncles":
			return 3, p.int(&w.Uncles)
		case "ByPool":
			return 4, decodeList(p, &w.ByPool, p.reward)
		}
		return 0, p.unknown(name)
	})
}

// counter decodes null (the zero counter) or a list of [outcome, count]
// pairs.
func (p *parser) counter(c *stats.Counter) error {
	pairs := p.pairs[:0]
	null, err := p.array(func() error {
		var pair [2]int64
		n := 0
		null, err := p.array(func() error {
			if n == len(pair) {
				return p.errorf("counter pair has more than two members")
			}
			n++
			return p.int64(&pair[n-1])
		})
		if err == nil && (null || n != len(pair)) {
			err = p.errorf("counter entry is not an [outcome, count] pair")
		}
		pairs = append(pairs, pair)
		return err
	})
	p.pairs = pairs
	if err != nil || null {
		return err
	}
	if *c, err = stats.CounterFromPairs(pairs); err != nil {
		return p.errorf("%v", err)
	}
	return nil
}

// occupancy decodes what appendRow writes for a sim.Occupancy (the bytes
// encoding/json writes for the map): null (a nil map) or an object of
// "s,h" state counts, into a map presized from its member count (every
// member has one colon).
func (p *parser) occupancy(dst *sim.Occupancy) error {
	if p.literal("null") {
		return nil
	}
	rest := p.data[p.pos:]
	if end := bytes.IndexByte(rest, '}'); end >= 0 {
		rest = rest[:end]
	}
	m := make(sim.Occupancy, bytes.Count(rest, []byte(":")))
	err := p.object(func(name []byte) error {
		s, ok := parseState(name)
		if !ok {
			return p.errorf("malformed state key %q", name)
		}
		if _, dup := m[s]; dup {
			return p.errorf("duplicate state key %q", name)
		}
		var n int64
		err := p.int64(&n)
		m[s] = n
		return err
	})
	*dst = m
	return err
}

// parseState decodes an occupancy key, accepting exactly the "s,h" forms
// core.State.MarshalText writes.
func parseState(b []byte) (core.State, bool) {
	i := bytes.IndexByte(b, ',')
	if i < 0 {
		return core.State{}, false
	}
	s, okS := canonicalInt(b[:i])
	h, okH := canonicalInt(b[i+1:])
	return core.State{S: s, H: h}, okS && okH
}

// canonicalInt decodes b if it is exactly strconv.Itoa's output for some
// int: an optional minus sign, then digits without a leading zero (and no
// "-0").
func canonicalInt(b []byte) (int, bool) {
	mag := b
	if len(mag) > 0 && mag[0] == '-' {
		mag = mag[1:]
	}
	if len(mag) == 0 || mag[0] == '0' && len(b) > 1 {
		return 0, false
	}
	for _, c := range mag {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(string(b))
	return n, err == nil
}
