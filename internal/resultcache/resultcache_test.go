package resultcache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/ethselfish/ethselfish/internal/jobkey"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// testRow is one (address, seed, expected result) triple; the expectation
// comes from a real simulation so every GetRaw can be checked against
// recomputation.
type testRow struct {
	key    string
	addr   [AddrSize]byte
	seed   uint64
	result sim.Result
}

// makeRows simulates n distinct rows across two configs (timeless and
// timed, so both Result shapes are exercised).
func makeRows(t testing.TB, n int) []testRow {
	t.Helper()
	pop, err := mining.TwoAgent(0.3)
	if err != nil {
		t.Fatal(err)
	}
	pop2, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	configs := []sim.Config{
		{Population: pop, Gamma: 0.5, Blocks: 500},
		{Population: pop2, Gamma: 0.3, Blocks: 800, Time: sim.TimeConfig{Enabled: true}},
	}
	rows := make([]testRow, 0, n)
	for i := 0; len(rows) < n; i++ {
		cfg := configs[i%len(configs)]
		cfg.Seed = uint64(1000 + i)
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr := jobkey.ForConfig(cfg).Row(cfg.Seed)
		rows = append(rows, testRow{key: addr.String(), addr: addr, seed: cfg.Seed, result: res})
	}
	return rows
}

func TestMemoryPutGet(t *testing.T) {
	rows := makeRows(t, 3)
	c := NewMemory(8)
	if _, ok, err := c.GetRaw(rows[0].addr, rows[0].seed); err != nil || ok {
		t.Fatalf("GetRaw on empty cache = (%v, %v), want miss", ok, err)
	}
	for _, r := range rows {
		if err := c.PutRaw(r.addr, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rows {
		got, ok, err := c.GetRaw(r.addr, r.seed)
		if err != nil || !ok {
			t.Fatalf("GetRaw(%0.12s) = (%v, %v), want hit", r.key, ok, err)
		}
		if !reflect.DeepEqual(got, r.result) {
			t.Errorf("row %.12s differs from the stored result", r.key)
		}
	}
	// Duplicate PutRaw of a cached key is a no-op, not a second store.
	if err := c.PutRaw(rows[0].addr, rows[0].seed, rows[0].result); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Stores != 3 || s.MemoryHits != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 stores, 3 memory hits, 1 miss", s)
	}
	// A seed disagreeing with the content address fails closed.
	if _, _, err := c.GetRaw(rows[0].addr, rows[0].seed+1); !errors.Is(err, ErrCache) {
		t.Errorf("seed-mismatch GetRaw err = %v, want ErrCache", err)
	}
}

func TestMemoryEviction(t *testing.T) {
	rows := makeRows(t, 4)
	c := NewMemory(2)
	for _, r := range rows {
		if err := c.PutRaw(r.addr, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", s.Evictions)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// The oldest rows are gone (memory-only: a miss, not an error); the
	// newest survive.
	if _, ok, _ := c.GetRaw(rows[0].addr, rows[0].seed); ok {
		t.Error("evicted row still served")
	}
	if _, ok, _ := c.GetRaw(rows[3].addr, rows[3].seed); !ok {
		t.Error("fresh row evicted out of order")
	}
}

func TestDiskReloadServesRows(t *testing.T) {
	rows := makeRows(t, 3)
	dir := t.TempDir()
	c, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := c.PutRaw(r.addr, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != len(rows) {
		t.Fatalf("reloaded Len = %d, want %d", c2.Len(), len(rows))
	}
	for _, r := range rows {
		got, ok, err := c2.GetRaw(r.addr, r.seed)
		if err != nil || !ok {
			t.Fatalf("reloaded GetRaw(%.12s) = (%v, %v), want hit", r.key, ok, err)
		}
		if !reflect.DeepEqual(got, r.result) {
			t.Errorf("reloaded row %.12s differs from the computed result", r.key)
		}
	}
	s := c2.Stats()
	if s.DiskHits != uint64(len(rows)) {
		t.Errorf("disk hits = %d, want %d", s.DiskHits, len(rows))
	}
	// The promoted rows now serve from memory.
	if _, ok, _ := c2.GetRaw(rows[0].addr, rows[0].seed); !ok {
		t.Fatal("promoted row missed")
	}
	if s := c2.Stats(); s.MemoryHits != 1 {
		t.Errorf("memory hits after promotion = %d, want 1", s.MemoryHits)
	}
}

// TestDiskEvictionKeepsRowsReachable: the memory tier evicting a
// disk-backed row must not lose it — the next GetRaw is a disk hit.
func TestDiskEvictionKeepsRowsReachable(t *testing.T) {
	rows := makeRows(t, 4)
	c, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, r := range rows {
		if err := c.PutRaw(r.addr, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rows {
		got, ok, err := c.GetRaw(r.addr, r.seed)
		if err != nil || !ok {
			t.Fatalf("GetRaw(%.12s) after eviction = (%v, %v), want disk hit", r.key, ok, err)
		}
		if !reflect.DeepEqual(got, r.result) {
			t.Errorf("row %.12s served from disk differs", r.key)
		}
	}
}

// TestConcurrentDiskHits: workers racing to the same disk rows each get
// the exact row, and each row is promoted once — the read and decode run
// outside the lock, the promotion inside it.
func TestConcurrentDiskHits(t *testing.T) {
	rows := makeRows(t, 4)
	dir := t.TempDir()
	c, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := c.PutRaw(r.addr, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err = Open(dir, 8); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(rows))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range rows {
				got, ok, err := c.GetRaw(r.addr, r.seed)
				if err != nil || !ok || !reflect.DeepEqual(got, r.result) {
					errs <- fmt.Errorf("GetRaw(%.12s) = (%v, %v) or a differing row", r.key, ok, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := c.lru.Len(); n != len(rows) || len(c.mem) != len(rows) {
		t.Errorf("memory tier holds %d list entries and %d keys, want %d each", n, len(c.mem), len(rows))
	}
	if s := c.Stats(); s.Hits() != uint64(8*len(rows)) || s.DiskHits < uint64(len(rows)) {
		t.Errorf("stats = %+v, want %d hits, at least %d from disk", s, 8*len(rows), len(rows))
	}
}

// TestDiskHitRechecksRow: a row rewritten on disk between Open and GetRaw
// fails its disk hit closed with ErrCache, and the error names the check
// that caught it. A newer second row and a one-row memory tier keep the
// tampered row out of what Open kept, so it takes the disk path.
func TestDiskHitRechecksRow(t *testing.T) {
	rows := makeRows(t, 2)
	r := rows[0]
	otherKey := "0" + r.key[1:]
	if otherKey == r.key {
		otherKey = "1" + r.key[1:]
	}
	for _, tc := range []struct {
		check    string
		old, new string
	}{
		{"parse error", `"Alpha":`, `"Alphx":`},
		{"key mismatch", r.key, otherKey},
		{"seed mismatch", fmt.Sprintf(`"seed":%d,`, r.seed), fmt.Sprintf(`"seed":%d,`, r.seed+1)},
	} {
		t.Run(tc.check, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if err := c.PutRaw(r.addr, r.seed, r.result); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if c, err = Open(dir, 1); err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// Rewrite the row in place, same length, after Open indexed it.
			path := filepath.Join(dir, journalName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			header, rest, _ := strings.Cut(string(data), "\n")
			row, _, _ := strings.Cut(rest, "\n")
			tampered := strings.Replace(row, tc.old, tc.new, 1)
			if tampered == row || len(tampered) != len(row) {
				t.Fatalf("tampering with %q did not rewrite the row in place", tc.old)
			}
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte(tampered), int64(len(header)+1)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			_, ok, err := c.GetRaw(r.addr, r.seed)
			if ok || !errors.Is(err, ErrCache) {
				t.Fatalf("GetRaw of a tampered row = (%v, %v), want ErrCache", ok, err)
			}
			if !strings.Contains(err.Error(), tc.check) {
				t.Errorf("error %q does not name the %s", err, tc.check)
			}
		})
	}
}

// TestOpenKeepsDecodedRows: Open keeps the newest rows it decoded, up to
// the memory tier's capacity, and serves them without reading the journal
// again; each kept row's first hit counts as a disk hit, later ones as
// memory hits. A row it did not keep takes the disk path.
func TestOpenKeepsDecodedRows(t *testing.T) {
	rows := makeRows(t, 3)
	dir := t.TempDir()
	c, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := c.PutRaw(r.addr, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, rewrite := range []string{"truncated", "rewritten"} {
		t.Run(rewrite, func(t *testing.T) {
			c, err := Open(dir, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if s := c.Stats(); s != (Stats{}) {
				t.Fatalf("stats after Open = %+v, want zero", s)
			}
			path := filepath.Join(dir, journalName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			// Past Open the journal's bytes are never read for a kept row.
			var mangled []byte
			if rewrite == "rewritten" {
				mangled = bytes.Repeat([]byte("x"), len(data))
			}
			if err := os.WriteFile(path, mangled, 0o644); err != nil {
				t.Fatal(err)
			}
			for hit, want := range []Stats{{DiskHits: 2}, {DiskHits: 2, MemoryHits: 2}} {
				for _, r := range rows[1:] {
					got, ok, err := c.GetRaw(r.addr, r.seed)
					if err != nil || !ok {
						t.Fatalf("hit %d: GetRaw(%.12s) = (%v, %v), want a kept row", hit, r.key, ok, err)
					}
					if !reflect.DeepEqual(got, r.result) {
						t.Errorf("hit %d: kept row %.12s differs from the computed result", hit, r.key)
					}
				}
				if s := c.Stats(); s != want {
					t.Errorf("stats after hit %d = %+v, want %+v", hit, s, want)
				}
			}
			// The oldest row was not kept: its disk hit reads the mangled journal.
			if _, ok, err := c.GetRaw(rows[0].addr, rows[0].seed); ok || err == nil {
				t.Errorf("oldest row GetRaw = (%v, %v), want a failed disk read", ok, err)
			}
		})
	}
}

// TestCacheFailsClosed: corruption anywhere before the final line, and
// version or schema skew, reject the journal with ErrCache and leave the
// file exactly as it was — only a torn tail is ever repaired (see
// TestCacheTrimsTornTail).
func TestCacheFailsClosed(t *testing.T) {
	rows := makeRows(t, 2)
	dir := t.TempDir()
	c, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := c.PutRaw(r.addr, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		bad := mutate(append([]byte(nil), data...))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, 4); !errors.Is(err, ErrCache) {
			t.Errorf("%s: Open err = %v, want ErrCache", name, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, bad) {
			t.Errorf("%s: rejected journal was modified on disk (%v)", name, err)
		}
	}
	tamper := func(b []byte) []byte {
		return []byte(strings.Replace(string(b), `"result":{`, `"result":{"bogus":1,`, 1))
	}
	corrupt("tampered row", tamper)
	corrupt("torn line mid-file", func(b []byte) []byte {
		lines := strings.SplitAfter(string(b), "\n")
		lines[1] = lines[1][:len(lines[1])/2] + "\n"
		return []byte(strings.Join(lines, ""))
	})
	corrupt("tampered row and a torn tail", func(b []byte) []byte {
		b = tamper(b)
		return b[:len(b)-1]
	})
	corrupt("version skew", func(b []byte) []byte {
		return []byte(strings.Replace(string(b), `{"version":1,`, `{"version":2,`, 1))
	})
	corrupt("schema skew", func(b []byte) []byte {
		return []byte(strings.Replace(string(b), fmt.Sprintf(`"schema":%d}`, sim.ResultSchemaVersion), `"schema":999}`, 1))
	})
	corrupt("duplicated row", func(b []byte) []byte {
		lines := strings.SplitAfter(string(b), "\n")
		return []byte(string(b) + lines[1])
	})
}

// TestCacheTrimsTornTail: a final line missing its newline — what a kill
// mid-append leaves — is trimmed at Open and reported in Stats.TornBytes;
// the rows before it keep serving, the torn row misses and is stored again
// on a clean line, and the repaired journal reopens with nothing dropped.
// A torn header line leaves an empty journal, which gets a fresh header.
func TestCacheTrimsTornTail(t *testing.T) {
	rows := makeRows(t, 2)
	open := func(dir string, wantTorn int) *Cache {
		t.Helper()
		c, err := Open(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().TornBytes; got != uint64(wantTorn) {
			t.Fatalf("TornBytes = %d, want %d", got, wantTorn)
		}
		return c
	}
	put := func(c *Cache, r testRow) {
		t.Helper()
		if err := c.PutRaw(r.addr, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	hit := func(c *Cache, r testRow, want bool) {
		t.Helper()
		got, ok, err := c.GetRaw(r.addr, r.seed)
		if err != nil || ok != want {
			t.Fatalf("GetRaw(%.12s) = (%v, %v), want hit=%v", r.key, ok, err, want)
		}
		if ok && !reflect.DeepEqual(got, r.result) {
			t.Fatalf("row %.12s differs from the computed result", r.key)
		}
	}
	closeCache := func(c *Cache) {
		t.Helper()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("torn row", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, journalName)
		c := open(dir, 0)
		put(c, rows[0])
		put(c, rows[1])
		closeCache(c)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n")
		last := lines[len(lines)-2] // SplitAfter leaves "" after the final newline
		intact := len(data) - len(last)
		torn := data[:intact+len(last)/2]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}

		c = open(dir, len(torn)-intact)
		hit(c, rows[0], true)
		hit(c, rows[1], false)
		put(c, rows[1])
		closeCache(c)
		if repaired, err := os.ReadFile(path); err != nil || !bytes.Equal(repaired, data) {
			t.Fatalf("re-stored row did not land on a clean line (%v)", err)
		}

		c = open(dir, 0)
		defer closeCache(c)
		if c.Len() != 2 {
			t.Fatalf("Len = %d, want 2", c.Len())
		}
		hit(c, rows[0], true)
		hit(c, rows[1], true)
	})

	t.Run("torn header", func(t *testing.T) {
		dir := t.TempDir()
		header := fmt.Sprintf(`{"version":1,"schema":%d}`, sim.ResultSchemaVersion)
		torn := header[:len(header)/2]
		if err := os.WriteFile(filepath.Join(dir, journalName), []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		c := open(dir, len(torn))
		if c.Len() != 0 {
			t.Fatalf("Len = %d, want an empty cache", c.Len())
		}
		put(c, rows[0])
		closeCache(c)

		c = open(dir, 0)
		defer closeCache(c)
		hit(c, rows[0], true)
	})
}

// TestCachePropertySequence is the satellite property test: any sequence
// of PutRaw / GetRaw / evict (via a tiny capacity) / reload yields rows
// DeepEqual to recomputation — the cache can serve stale nothing, because
// its only failure mode is a miss.
func TestCachePropertySequence(t *testing.T) {
	rows := makeRows(t, 6)
	for _, disk := range []bool{false, true} {
		name := "memory"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *Cache {
				if !disk {
					return NewMemory(3) // tiny: forces constant eviction
				}
				c, err := Open(dir, 3)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			c := open()
			defer func() { c.Close() }()

			rng := rand.New(rand.NewSource(42))
			put := make(map[string]bool)
			for step := 0; step < 400; step++ {
				r := rows[rng.Intn(len(rows))]
				switch op := rng.Intn(10); {
				case op < 4:
					if err := c.PutRaw(r.addr, r.seed, r.result); err != nil {
						t.Fatal(err)
					}
					put[r.key] = true
				case op < 9:
					got, ok, err := c.GetRaw(r.addr, r.seed)
					if err != nil {
						t.Fatal(err)
					}
					if ok && !reflect.DeepEqual(got, r.result) {
						t.Fatalf("step %d: row %.12s differs from recomputation", step, r.key)
					}
					if !ok && disk && put[r.key] {
						t.Fatalf("step %d: disk-backed row %.12s lost", step, r.key)
					}
				case disk:
					// Reload: close, reopen, and continue the sequence.
					if err := c.Close(); err != nil {
						t.Fatal(err)
					}
					c = open()
				}
			}
			// Every row ever stored in a disk-backed cache is still exact.
			if disk {
				for _, r := range rows {
					if !put[r.key] {
						continue
					}
					got, ok, err := c.GetRaw(r.addr, r.seed)
					if err != nil || !ok {
						t.Fatalf("final GetRaw(%.12s) = (%v, %v), want hit", r.key, ok, err)
					}
					if !reflect.DeepEqual(got, r.result) {
						t.Errorf("final row %.12s differs from recomputation", r.key)
					}
				}
			}
		})
	}
}

// FuzzCacheDecode: the strict decoder never panics, never accepts a
// truncated tail (Open trims one before decoding), and only ever fails with
// ErrCache.
func FuzzCacheDecode(f *testing.F) {
	header := fmt.Sprintf(`{"version":1,"schema":%d}`, sim.ResultSchemaVersion)
	key := strings.Repeat("ab", 32)
	row := `{"key":"` + key + `","seed":7,"result":{"Alpha":0.3,"Blocks":500}}`
	valid := header + "\n" + row + "\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)-1]))
	f.Add([]byte(header + "\n"))
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte(header + "\n" + row + "\n" + row + "\n"))
	f.Add([]byte(`{"version":1,"schema":999}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewMemory(2)
		err := c.decodeJournal(bytes.NewReader(data))
		index := c.index
		if err != nil {
			if !errors.Is(err, ErrCache) {
				t.Errorf("error %v does not wrap ErrCache", err)
			}
			return
		}
		if len(data) > 0 && data[len(data)-1] != '\n' {
			t.Error("journal without a final newline accepted")
		}
		for k, pos := range index {
			if len(k) != 64 || !isHex(k) {
				t.Errorf("accepted malformed key %q", k)
			}
			if pos.off < 0 || pos.off+int64(pos.len) > int64(len(data)) {
				t.Errorf("row %q indexed outside the journal", k)
			}
		}
		for k, el := range c.mem {
			if pos, ok := index[k]; !ok || pos.seed != el.Value.(*entry).seed {
				t.Errorf("kept row %q is not the indexed one", k)
			}
		}
	})
}
