package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"github.com/ethselfish/ethselfish/internal/sim"
)

// benchJournal writes an n-row journal into a fresh cache directory: the
// schema-1 journal's real rows in turn, each under its own synthetic
// address. It returns the directory, the addresses and their seeds.
func benchJournal(b *testing.B, n int) (string, [][AddrSize]byte, []uint64) {
	b.Helper()
	var results []sim.Result
	for _, line := range journalLines(b) {
		row, err := oracleRow(line)
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, row.Result)
	}
	dir := b.TempDir()
	c, err := Open(dir, 1)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][AddrSize]byte, n)
	seeds := make([]uint64, n)
	for i := range keys {
		var idx [8]byte
		binary.LittleEndian.PutUint64(idx[:], uint64(i))
		keys[i], seeds[i] = sha256.Sum256(idx[:]), uint64(i)
		if err := c.PutRaw(keys[i], seeds[i], results[i%len(results)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, keys, seeds
}

// BenchmarkJournalOpen opens a 5000-row journal: a streamed read, strict
// validation of every row, the key -> offset index, and the decoded rows
// kept in the (default-sized) memory tier.
func BenchmarkJournalOpen(b *testing.B) {
	dir, _, _ := benchJournal(b, 5000)
	info, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Open(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

// BenchmarkGetRawDisk serves every GetRaw from the disk tier: a one-entry
// memory tier and a cycle over 512 rows make each lookup a ReadAt, a
// strict decode and a promotion that evicts the previous row.
func BenchmarkGetRawDisk(b *testing.B) {
	dir, keys, seeds := benchJournal(b, 512)
	c, err := Open(dir, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(keys)
		if _, ok, err := c.GetRaw(keys[k], seeds[k]); err != nil || !ok {
			b.Fatalf("GetRaw = (%v, %v), want a hit", ok, err)
		}
	}
	if s := c.Stats(); s.MemoryHits != 0 {
		b.Fatalf("%d memory hits, want every lookup served from disk", s.MemoryHits)
	}
}

// BenchmarkGetRawMemory serves every GetRaw from a warmed memory tier.
func BenchmarkGetRawMemory(b *testing.B) {
	dir, keys, seeds := benchJournal(b, 512)
	c, err := Open(dir, len(keys))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for k := range keys {
		if _, ok, err := c.GetRaw(keys[k], seeds[k]); err != nil || !ok {
			b.Fatalf("warming GetRaw = (%v, %v), want a hit", ok, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(keys)
		if _, ok, err := c.GetRaw(keys[k], seeds[k]); err != nil || !ok {
			b.Fatalf("GetRaw = (%v, %v), want a hit", ok, err)
		}
	}
	if s := c.Stats(); s.DiskHits != uint64(len(keys)) {
		b.Fatalf("%d disk hits, want only the %d warming lookups", s.DiskHits, len(keys))
	}
}

// BenchmarkPutRaw journals rows, each under a fresh address, into a
// disk-backed cache: the encoding, the append and the memory-tier insert
// (a 64-entry tier, so evictions are counted too). The schema-1 case takes
// the schema-1 journal's rows in turn; the 1200-state case its first row
// with one pool's occupancy grown to 1,200 states, a deep race's worth.
func BenchmarkPutRaw(b *testing.B) {
	var results []sim.Result
	for _, line := range journalLines(b) {
		row, err := oracleRow(line)
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, row.Result)
	}
	for _, bc := range []struct {
		name    string
		results []sim.Result
	}{
		{"schema-1", results},
		{"1200-states", []sim.Result{withBigOccupancy(results[0])}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := Open(b.TempDir(), 64)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var idx [8]byte
				binary.LittleEndian.PutUint64(idx[:], uint64(i))
				if err := c.PutRaw(sha256.Sum256(idx[:]), uint64(i), bc.results[i%len(bc.results)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
