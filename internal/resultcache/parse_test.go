package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/stats"
)

// schema1Journal was written by the ethselfish binary from before the
// journal had its own row decoder, when rows were decoded with
// encoding/json (`-runs 1 -blocks 400 -cachedir D` over fig8, poolwars
// and profitability: one and several pools, timeless and timed rows).
const schema1Journal = "testdata/journal-schema1.jsonl"

// journalLines returns the rows of the schema-1 journal, header dropped.
func journalLines(t testing.TB) [][]byte {
	t.Helper()
	data, err := os.ReadFile(schema1Journal)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))[1:]
}

// oracleRow decodes a row line with encoding/json, the decoder parseRow
// must agree with.
func oracleRow(line []byte) (journalRow, error) {
	var row journalRow
	err := strictUnmarshal(line, &row)
	return row, err
}

// TestJournalWrittenWithEncodingJSONServesOracleRows: a journal written
// before parseRow existed opens, and every row it serves from disk is the
// oracle's decoding; re-encoding each row reproduces its line byte for
// byte, so the writer is unchanged too.
func TestJournalWrittenWithEncodingJSONServesOracleRows(t *testing.T) {
	data, err := os.ReadFile(schema1Journal)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lines := journalLines(t)
	if c.Len() != len(lines) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(lines))
	}
	for i, line := range lines {
		want, err := oracleRow(line)
		if err != nil {
			t.Fatalf("row %d: oracle: %v", i, err)
		}
		if again, err := json.Marshal(want); err != nil || !bytes.Equal(again, line) {
			t.Errorf("row %d: re-encoding differs from the journaled line (%v)", i, err)
		}
		want.Result.RestoreAliases()
		var addr [AddrSize]byte
		if _, err := hex.Decode(addr[:], []byte(want.Key)); err != nil {
			t.Fatalf("row %d: address %q: %v", i, want.Key, err)
		}
		got, ok, err := c.GetRaw(addr, want.Seed)
		if err != nil || !ok {
			t.Fatalf("row %d: GetRaw = (%v, %v), want hit", i, ok, err)
		}
		if !reflect.DeepEqual(got, want.Result) {
			t.Errorf("row %d (%.12s): served row differs from the oracle's", i, want.Key)
		}
	}
	if s := c.Stats(); s.DiskHits != uint64(len(lines)) {
		t.Errorf("disk hits = %d, want %d", s.DiskHits, len(lines))
	}
}

// TestPutRawWritesSchema1Journal: journaling the schema-1 journal's rows
// in order through PutRaw reproduces the file byte for byte, header
// included, so the writer still writes what json.Marshal wrote.
func TestPutRawWritesSchema1Journal(t *testing.T) {
	want, err := os.ReadFile(schema1Journal)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range journalLines(t) {
		row, err := oracleRow(line)
		if err != nil {
			t.Fatalf("row %d: oracle: %v", i, err)
		}
		var addr [AddrSize]byte
		if _, err := hex.Decode(addr[:], []byte(row.Key)); err != nil {
			t.Fatalf("row %d: address %q: %v", i, row.Key, err)
		}
		if err := c.PutRaw(addr, row.Seed, row.Result); err != nil {
			t.Fatalf("row %d: PutRaw: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gotLines), len(wantLines)) {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("line %d differs\ngot:  %s\nwant: %s", i, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("journal has %d lines, want %d", len(gotLines), len(wantLines))
	}
}

// putRawAllocs bounds PutRaw's allocations per disk-backed row (3 when it
// was set, for rows of 3 and of 1,200 occupancy states alike: the key
// string, the memory-tier entry and its list element; encoding allocates
// nothing once the cache's buffer has grown).
const putRawAllocs = 5

// TestPutRawAllocs pins PutRaw's allocations per row, and that they do not
// grow with the number of occupancy states a row carries.
func TestPutRawAllocs(t *testing.T) {
	row, err := oracleRow(journalLines(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var n uint64
	for _, tc := range []struct {
		name   string
		result sim.Result
	}{{"schema-1 row", row.Result}, {"1200 states", withBigOccupancy(row.Result)}} {
		allocs := testing.AllocsPerRun(200, func() {
			n++
			var idx [8]byte
			binary.LittleEndian.PutUint64(idx[:], n)
			if err := c.PutRaw(sha256.Sum256(idx[:]), n, tc.result); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocations per PutRaw", tc.name, allocs)
		if allocs > putRawAllocs {
			t.Errorf("%s: PutRaw allocates %.1f times per row, want at most %d", tc.name, allocs, putRawAllocs)
		}
	}
}

// withBigOccupancy returns r with one pool's occupancy of 1,200 states
// (40 x 30, some with Lh < 0) in place of its own.
func withBigOccupancy(r sim.Result) sim.Result {
	o := make(sim.Occupancy)
	for s := 0; s < 40; s++ {
		for h := -2; h < 28; h++ {
			o[core.State{S: s, H: h}] = int64(s*h + 1)
		}
	}
	r.OccupancyByPool = []sim.Occupancy{o}
	r.Occupancy = o
	return r
}

// schemaFiller sets every exported field of a value by a reflect walk, so
// a field added to sim.Result (or to anything it embeds) reaches the
// journal encoding and fails TestParseRowCoversSchema until parseRow
// learns it.
type schemaFiller struct {
	t     *testing.T
	shape int // 0: nil slices/maps/counters; 1: empty; 2: populated; 3: mixed
	n     int // advanced per value, so scalars and map keys differ
}

var edgeFloats = []float64{
	1e-07, 1e21, math.Copysign(0, -1), 0, 0.1, -2.5, 5e-324,
	math.MaxFloat64, 1e20, 1e-06, 123456.789, -1.7e-300,
}

var counterType = reflect.TypeOf(stats.Counter{})

// pick returns the nil/empty/populated choice for the next container.
func (f *schemaFiller) pick() int {
	if f.shape == 3 {
		return f.n % 3
	}
	return f.shape
}

func (f *schemaFiller) fill(v reflect.Value) {
	f.n++
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(edgeFloats[f.n%len(edgeFloats)])
	case reflect.Int, reflect.Int64:
		v.SetInt([]int64{int64(f.n), -int64(f.n), math.MaxInt64 - int64(f.n), math.MinInt64 + int64(f.n)}[f.n%4])
	case reflect.Bool:
		v.SetBool(f.n%2 == 0)
	case reflect.Struct:
		if v.Type() == counterType {
			v.Set(reflect.ValueOf(f.counter()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			field := v.Type().Field(i)
			if field.IsExported() && field.Tag.Get("json") != "-" {
				f.fill(v.Field(i))
			}
		}
	case reflect.Slice:
		switch f.pick() {
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		case 2:
			s := reflect.MakeSlice(v.Type(), 3, 3)
			for i := 0; i < s.Len(); i++ {
				f.fill(s.Index(i))
			}
			v.Set(s)
		}
	case reflect.Map:
		switch f.pick() {
		case 1:
			v.Set(reflect.MakeMap(v.Type()))
		case 2:
			m := reflect.MakeMap(v.Type())
			for i := 0; i < 4; i++ {
				key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				f.fill(key)
				f.fill(val)
				m.SetMapIndex(key, val)
			}
			v.Set(m)
		}
	default:
		f.t.Fatalf("the schema walk does not know %s values (%s): teach it, and parseRow", v.Kind(), v.Type())
	}
}

func (f *schemaFiller) counter() stats.Counter {
	var c stats.Counter
	switch f.pick() {
	case 1:
		empty, err := stats.CounterFromPairs(nil)
		if err != nil {
			f.t.Fatal(err)
		}
		c = empty
	case 2:
		for k := 0; k < 4; k++ {
			c.ObserveN(k*f.n-2, int64(f.n+k))
		}
	}
	return c
}

// TestParseRowCoversSchema round-trips Results with every exported field
// set — nil, empty and populated slices, maps and counters, edge-case
// floats — through json.Marshal and parseRow: the decoded row equals the
// original and the oracle's decoding, and re-encodes to the same bytes,
// which appendRow writes too.
func TestParseRowCoversSchema(t *testing.T) {
	for shape := 0; shape < 4; shape++ {
		for start := 0; start < 5; start++ {
			t.Run(fmt.Sprintf("shape%d/start%d", shape, start), func(t *testing.T) {
				f := schemaFiller{t: t, shape: shape, n: start}
				want := journalRow{Key: strings.Repeat("0f", 32), Seed: math.MaxUint64 - uint64(start)}
				f.fill(reflect.ValueOf(&want.Result).Elem())
				line, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				var got journalRow
				if err := parseRow(line, &got); err != nil {
					t.Fatalf("parseRow: %v\nline: %s", err, line)
				}
				oracle, err := oracleRow(line)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if !reflect.DeepEqual(got, oracle) {
					t.Fatalf("parseRow differs from the oracle\nline: %s", line)
				}
				if again, err := json.Marshal(got); err != nil || !bytes.Equal(again, line) {
					t.Fatalf("decoded row re-encodes differently (%v)\nwant: %s\ngot:  %s", err, line, again)
				}
				if appended, err := encodeRow(want); err != nil || !bytes.Equal(appended, append(line, '\n')) {
					t.Fatalf("appendRow differs from encoding/json (%v)\nwant: %s\ngot:  %s", err, line, appended)
				}
				got.Result.RestoreAliases()
				want.Result.RestoreAliases()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round trip differs from the original\nline: %s", line)
				}
			})
		}
	}
}

// validRow is a compact row both decoders accept; the rejection cases
// below each break one rule of parseRow's accepted subset.
const validRow = `{"key":"` + "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef" +
	`","seed":42,"result":{"Alpha":0.3,"Blocks":500,"Pool":{"Static":1,"Uncle":0.5,"Nephew":0.03125},` +
	`"ByPool":[{"Static":2,"Uncle":0,"Nephew":0}],"MinerSeen":[true,false],` +
	`"PoolUncleDistances":[[1,4],[2,3]],"HonestUncleDistances":null,"EventsByPool":[400,100],` +
	`"OccupancyByPool":[{"0,0":7,"1,0":2,"-1,12":1},null,{}],"Elapsed":1e-07,` +
	`"Early":{"Start":0,"End":2.5,"Regular":3,"Uncles":1,"ByPool":null}}}`

func TestParseRowAcceptsValidRow(t *testing.T) {
	var got journalRow
	if err := parseRow([]byte(validRow), &got); err != nil {
		t.Fatal(err)
	}
	want, err := oracleRow([]byte(validRow))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseRow = %+v, oracle = %+v", got, want)
	}
}

// rejectedRows each break one rule of the accepted subset by replacing
// the first old in validRow with new (an empty old appends new). Some are
// lines encoding/json still accepts — whitespace, an escape, a folded
// name, a repeated field or state key, a stray closing brace: the decoder
// is a strict subset of the oracle, never a superset.
var rejectedRows = []struct{ name, old, new string }{
	{"unknown field", `"Alpha":0.3,`, `"Alpha":0.3,"Bogus":1,`},
	{"aliased Occupancy field", `"Elapsed":`, `"Occupancy":{},"Elapsed":`},
	{"folded field name", `"Alpha":`, `"alpha":`},
	{"repeated field", `"seed":42,`, `"seed":42,"seed":42,`},
	{"repeated nested field", `"Static":1,`, `"Static":1,"Static":1,`},
	{"string escape", `"key":"0`, `"key":"\u0030`},
	{"non-ASCII string", `"key":"0`, "\"key\":\"\xc3\xa9"},
	{"whitespace", `"seed":42`, `"seed": 42`},
	{"trailing brace", "", "}"},
	{"trailing space", "", " "},
	{"unterminated", "}}}", "}}"},
	{"fraction in int", `"Blocks":500`, `"Blocks":500.0`},
	{"exponent in int", `"Blocks":500`, `"Blocks":5e2`},
	{"leading zero", `"Blocks":500`, `"Blocks":0500`},
	{"plus sign", `"Alpha":0.3`, `"Alpha":+0.3`},
	{"bare fraction", `"Alpha":0.3`, `"Alpha":.3`},
	{"empty exponent", `"Elapsed":1e-07`, `"Elapsed":1e-`},
	{"negative seed", `"seed":42`, `"seed":-42`},
	{"float overflow", `"Alpha":0.3`, `"Alpha":1e400`},
	{"int overflow", `"Blocks":500`, `"Blocks":9223372036854775808`},
	{"null struct", `"Pool":{"Static":1,"Uncle":0.5,"Nephew":0.03125}`, `"Pool":null`},
	{"null scalar", `"Alpha":0.3`, `"Alpha":null`},
	{"null bool element", `[true,false]`, `[true,null]`},
	{"state key leading zero", `"1,0":2`, `"01,0":2`},
	{"state key plus sign", `"1,0":2`, `"+1,0":2`},
	{"state key minus zero", `"1,0":2`, `"-0,0":2`},
	{"state key separator", `"1,0":2`, `"1;0":2`},
	{"state key extra part", `"1,0":2`, `"1,0,0":2`},
	{"repeated state key", `"1,0":2`, `"0,0":2`},
	{"counter zero count", `[[1,4],[2,3]]`, `[[1,4],[2,0]]`},
	{"counter negative count", `[[1,4],[2,3]]`, `[[1,4],[2,-3]]`},
	{"counter repeated outcome", `[[1,4],[2,3]]`, `[[1,4],[1,3]]`},
	{"counter short pair", `[[1,4],[2,3]]`, `[[1,4],[2]]`},
	{"counter long pair", `[[1,4],[2,3]]`, `[[1,4],[2,3,1]]`},
	{"counter null pair", `[[1,4],[2,3]]`, `[[1,4],null]`},
	{"counter fraction", `[[1,4],[2,3]]`, `[[1,4],[2,3.5]]`},
}

// mutatedRows applies rejectedRows to validRow.
func mutatedRows(t testing.TB) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(rejectedRows))
	for _, c := range rejectedRows {
		if c.old == "" {
			out[c.name] = []byte(validRow + c.new)
			continue
		}
		if !strings.Contains(validRow, c.old) {
			t.Fatalf("case %q: %s does not occur in validRow", c.name, c.old)
		}
		out[c.name] = []byte(strings.Replace(validRow, c.old, c.new, 1))
	}
	return out
}

func TestParseRowRejects(t *testing.T) {
	for name, line := range mutatedRows(t) {
		var row journalRow
		if err := parseRow(line, &row); err == nil {
			t.Errorf("%s: parseRow accepted %s", name, line)
		}
	}
}

// FuzzJournalRow: whenever parseRow accepts a line, encoding/json accepts
// it too and decodes the same value — the decoder is a strict subset of
// the oracle.
func FuzzJournalRow(f *testing.F) {
	for _, line := range journalLines(f) {
		f.Add(line)
	}
	f.Add([]byte(validRow))
	for _, line := range mutatedRows(f) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got journalRow
		if parseRow(line, &got) != nil {
			return
		}
		want, err := oracleRow(line)
		if err != nil {
			t.Fatalf("parseRow accepted a line encoding/json rejects (%v): %q", err, line)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parseRow and encoding/json decode %q differently", line)
		}
	})
}

func BenchmarkParseRow(b *testing.B) {
	lines := journalLines(b)
	b.ReportAllocs()
	var row journalRow
	for i := 0; i < b.N; i++ {
		if err := parseRow(lines[i%len(lines)], &row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrictUnmarshalRow is BenchmarkParseRow for the oracle.
func BenchmarkStrictUnmarshalRow(b *testing.B) {
	lines := journalLines(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var row journalRow
		if err := strictUnmarshal(lines[i%len(lines)], &row); err != nil {
			b.Fatal(err)
		}
	}
}
