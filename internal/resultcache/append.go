package resultcache

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// rowBuffer is the reusable storage one journal line is encoded in: the
// line itself, the occupancy encoder's scratch and the encoding's first
// error.
type rowBuffer struct {
	line    []byte
	keys    []byte      // one occupancy object's key texts, back to back
	members []occMember // that object's members, sorted by key text
	err     error
}

// occMember is one occupancy member: its key text keys[start:end] and its
// count.
type occMember struct {
	start, end int32
	count      int64
}

// appendHeader appends the journal's first line, json.Marshal's bytes for
// h and a newline.
func appendHeader(b []byte, h journalHeader) []byte {
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, int64(h.Version), 10)
	b = append(b, `,"schema":`...)
	b = strconv.AppendInt(b, int64(h.Schema), 10)
	return append(b, "}\n"...)
}

// appendRow appends row as one journal line to buf.line: exactly the bytes
// json.Marshal writes for it, then a newline. It is parseRow's twin, and
// like it schema-specific and reflection-free: fields in struct order,
// floats formatted as encoding/json formats them, occupancy members sorted
// by key text as encoding/json sorts map keys, and counters through
// stats.Counter.AppendJSON. It fails where json.Marshal fails (a NaN or
// infinite float) and on a key that is not printable ASCII free of the
// characters json.Marshal escapes, which no hex row address is; buf.line
// is then left partly written.
func appendRow(buf *rowBuffer, row *journalRow) error {
	for i := 0; i < len(row.Key); i++ {
		if c := row.Key[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return fmt.Errorf("row key %q needs escaping", row.Key)
		}
	}
	buf.err = nil
	buf.line = append(buf.line, `{"key":"`...)
	buf.line = append(buf.line, row.Key...)
	buf.line = append(buf.line, `","seed":`...)
	buf.line = strconv.AppendUint(buf.line, row.Seed, 10)
	buf.line = append(buf.line, `,"result":`...)
	buf.result(&row.Result)
	buf.line = append(buf.line, "}\n"...)
	return buf.err
}

// name appends a member's name and colon, preceded by the object's
// opening brace for its first member and by a comma for the others.
func (e *rowBuffer) name(first bool, name string) {
	if first {
		e.line = append(e.line, '{')
	} else {
		e.line = append(e.line, ',')
	}
	e.line = append(e.line, '"')
	e.line = append(e.line, name...)
	e.line = append(e.line, '"', ':')
}

// float appends f as encoding/json formats a float64: the shortest 'f'
// form, or 'e' form below 1e-6 and from 1e21 in magnitude with a
// single-digit negative exponent written without its leading zero.
func (e *rowBuffer) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("unsupported float value %v", f)
		}
		e.line = append(e.line, '0')
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.line = strconv.AppendFloat(e.line, f, format, -1, 64)
	if n := len(e.line); format == 'e' && e.line[n-4] == 'e' && e.line[n-3] == '-' && e.line[n-2] == '0' {
		e.line[n-2] = e.line[n-1]
		e.line = e.line[:n-1]
	}
}

func (e *rowBuffer) int(n int64) {
	e.line = strconv.AppendInt(e.line, n, 10)
}

func (e *rowBuffer) result(r *sim.Result) {
	e.name(true, "Alpha")
	e.float(r.Alpha)
	e.name(false, "Blocks")
	e.int(int64(r.Blocks))
	e.name(false, "Pool")
	e.reward(&r.Pool)
	e.name(false, "Honest")
	e.reward(&r.Honest)
	e.name(false, "ByPool")
	e.rewards(r.ByPool)
	e.name(false, "MinerRewards")
	e.rewards(r.MinerRewards)
	e.name(false, "MinerSeen")
	appendList(e, r.MinerSeen, func(b bool) { e.line = strconv.AppendBool(e.line, b) })
	e.name(false, "RegularCount")
	e.int(int64(r.RegularCount))
	e.name(false, "UncleCount")
	e.int(int64(r.UncleCount))
	e.name(false, "StaleCount")
	e.int(int64(r.StaleCount))
	e.name(false, "PoolUncleDistances")
	e.line = r.PoolUncleDistances.AppendJSON(e.line)
	e.name(false, "HonestUncleDistances")
	e.line = r.HonestUncleDistances.AppendJSON(e.line)
	e.name(false, "EventsByPool")
	appendList(e, r.EventsByPool, e.int)
	e.name(false, "OccupancyByPool")
	appendList(e, r.OccupancyByPool, e.occupancy)
	e.name(false, "Elapsed")
	e.float(r.Elapsed)
	e.name(false, "SettledTime")
	e.float(r.SettledTime)
	e.name(false, "InitialDifficulty")
	e.float(r.InitialDifficulty)
	e.name(false, "FinalDifficulty")
	e.float(r.FinalDifficulty)
	e.name(false, "Retargets")
	e.int(int64(r.Retargets))
	e.name(false, "Early")
	e.window(&r.Early)
	e.name(false, "Steady")
	e.window(&r.Steady)
	e.line = append(e.line, '}')
}

func (e *rowBuffer) reward(r *chain.Reward) {
	e.name(true, "Static")
	e.float(r.Static)
	e.name(false, "Uncle")
	e.float(r.Uncle)
	e.name(false, "Nephew")
	e.float(r.Nephew)
	e.line = append(e.line, '}')
}

func (e *rowBuffer) rewards(rs []chain.Reward) {
	appendList(e, rs, func(r chain.Reward) { e.reward(&r) })
}

func (e *rowBuffer) window(w *sim.Window) {
	e.name(true, "Start")
	e.float(w.Start)
	e.name(false, "End")
	e.float(w.End)
	e.name(false, "Regular")
	e.int(int64(w.Regular))
	e.name(false, "Uncles")
	e.int(int64(w.Uncles))
	e.name(false, "ByPool")
	e.rewards(w.ByPool)
	e.line = append(e.line, '}')
}

// appendList appends s as json.Marshal writes a slice: null when nil,
// otherwise its elements in brackets.
func appendList[T any](e *rowBuffer, s []T, elem func(T)) {
	if s == nil {
		e.line = append(e.line, "null"...)
		return
	}
	e.line = append(e.line, '[')
	for i, v := range s {
		if i > 0 {
			e.line = append(e.line, ',')
		}
		elem(v)
	}
	e.line = append(e.line, ']')
}

// occupancy appends o as json.Marshal writes a map with text-marshaled
// keys: null when nil, otherwise its members sorted by key text.
func (e *rowBuffer) occupancy(o sim.Occupancy) {
	if o == nil {
		e.line = append(e.line, "null"...)
		return
	}
	e.keys, e.members = e.keys[:0], slices.Grow(e.members[:0], len(o))
	for s, n := range o {
		start := len(e.keys)
		e.keys, _ = s.AppendText(e.keys)
		e.members = append(e.members, occMember{int32(start), int32(len(e.keys)), n})
	}
	slices.SortFunc(e.members, func(a, b occMember) int {
		return bytes.Compare(e.keys[a.start:a.end], e.keys[b.start:b.end])
	})
	e.line = append(e.line, '{')
	for i, m := range e.members {
		if i > 0 {
			e.line = append(e.line, ',')
		}
		e.line = append(e.line, '"')
		e.line = append(e.line, e.keys[m.start:m.end]...)
		e.line = append(e.line, '"', ':')
		e.int(m.count)
	}
	e.line = append(e.line, '}')
}
