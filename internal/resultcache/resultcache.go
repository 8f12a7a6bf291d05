// Package resultcache is the content-addressed result store behind the
// experiments engine: a two-tier cache (in-memory LRU over an append-only
// disk journal) of simulation rows keyed by their canonical jobkey row
// address. Because every row is a pure function of its address
// (determinism invariant 3, with the address covering config, run length,
// statistical mode, and exact seed), a hit is not an approximation — it is
// bit-for-bit the row a fresh simulation would produce, so cached sweeps
// remain subject to every statistical cross-check that recomputed ones
// are. The store is the serving-layer foundation the ROADMAP's ethserved
// item lifts behind HTTP/WS unchanged.
//
// Disk layout: one file, results.jsonl, in the cache directory. The first
// line is {"version":1,"schema":S} where S is sim.ResultSchemaVersion;
// every following line is one row {"key":"<64 hex>","seed":N,
// "result":{...}}. Rows are appended one whole line per write, so the
// damage a crash mid-append leaves is a torn final line missing its
// newline: Open trims it back to the last complete line and reports the
// dropped bytes in Stats.TornBytes, and the row it held is simply
// recomputed. Everything before the tail is decoded strictly: a malformed
// line, a duplicated key, or a version or schema skew rejects the whole
// file with ErrCache rather than silently serving corrupt rows. Wipe the
// directory to recover from that; the cache then simply refills.
//
// The memory tier holds decoded rows under an LRU bound; the disk tier is
// scanned once at Open into a key -> byte-offset index, so a disk hit is
// one ReadAt plus one strict decode, promoted into memory. Writes append
// under a lock through a single handle; the cache is safe for concurrent
// use by the engine's workers but assumes a single writing process per
// directory.
package resultcache

import (
	"bytes"
	"container/list"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"github.com/ethselfish/ethselfish/internal/sim"
)

// ErrCache is returned when a cache journal is malformed or written under a
// different row schema.
var ErrCache = errors.New("resultcache: invalid cache journal")

// journalVersion identifies the cache journal's container format; the row
// payload schema is versioned separately by sim.ResultSchemaVersion.
const journalVersion = 1

// journalName is the journal's filename inside the cache directory.
const journalName = "results.jsonl"

// AddrSize is the length of a raw row address in bytes (a sha256 digest;
// string-keyed entry points take its 2*AddrSize-char hex form).
const AddrSize = 32

// DefaultMemoryEntries bounds the memory tier when the caller passes a
// non-positive capacity. At roughly 2-6 KB per decoded row this keeps the
// default cache in the tens of megabytes.
const DefaultMemoryEntries = 8192

// journalHeader is the journal's first line.
type journalHeader struct {
	Version int `json:"version"`
	Schema  int `json:"schema"`
}

// journalRow is one cached row on disk.
type journalRow struct {
	Key    string     `json:"key"`
	Seed   uint64     `json:"seed"`
	Result sim.Result `json:"result"`
}

// diskPos locates one row's line inside the journal.
type diskPos struct {
	off  int64
	len  int
	seed uint64
}

// entry is one decoded row in the memory tier.
type entry struct {
	key    string
	seed   uint64
	result sim.Result
}

// Stats counts the cache's traffic. Hits split by serving tier; Stores
// counts rows newly added (duplicates of an already-cached key are
// ignored, not counted); Evictions counts memory-tier drops (disk-backed
// rows remain reachable after eviction, memory-only rows do not);
// TornBytes is the length of the torn final line Open trimmed from the
// journal (zero when the journal ended cleanly).
type Stats struct {
	MemoryHits uint64
	DiskHits   uint64
	Misses     uint64
	Stores     uint64
	Evictions  uint64
	TornBytes  uint64
}

// Hits returns the total hit count across both tiers.
func (s Stats) Hits() uint64 { return s.MemoryHits + s.DiskHits }

// Cache is a two-tier content-addressed result store. Construct with
// NewMemory (memory tier only) or Open (memory over a disk journal); it is
// safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of *entry, most recent first
	mem   map[string]*list.Element
	file  *os.File // nil: memory-only
	size  int64    // journal length; the offset the next append lands at
	index map[string]diskPos
	stats Stats
}

// NewMemory returns a memory-only cache bounded to capacity entries
// (non-positive: DefaultMemoryEntries). Evicted rows are recomputed on
// next use; nothing persists across processes.
func NewMemory(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultMemoryEntries
	}
	return &Cache{
		cap: capacity,
		lru: list.New(),
		mem: make(map[string]*list.Element),
	}
}

// Open opens (creating if needed) the disk-backed cache in dir and layers a
// memory LRU of the given capacity (non-positive: DefaultMemoryEntries)
// over it. A torn final line is trimmed from the file (see the package
// doc); the rest of the journal is validated strictly, and a corrupt or
// schema-skewed journal is rejected with ErrCache — left untouched on disk
// and never silently served from.
func Open(dir string, capacity int) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: creating cache dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("resultcache: reading cache journal: %w", err)
	}
	complete := data[:bytes.LastIndexByte(data, '\n')+1]
	index, err := decodeJournal(complete)
	if err != nil {
		return nil, fmt.Errorf("%w (wipe %s to start over)", err, dir)
	}
	torn := len(data) - len(complete)
	if torn > 0 {
		// Appends must start on a line boundary, so drop the torn line
		// from the file itself, not just from the index.
		if err := os.Truncate(path, int64(len(complete))); err != nil {
			return nil, fmt.Errorf("resultcache: trimming torn journal tail: %w", err)
		}
	}
	file, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultcache: opening cache journal: %w", err)
	}
	c := NewMemory(capacity)
	c.file = file
	c.size = int64(len(complete))
	c.index = index
	c.stats.TornBytes = uint64(torn)
	if len(complete) == 0 {
		if err := c.writeLine(journalHeader{Version: journalVersion, Schema: sim.ResultSchemaVersion}); err != nil {
			file.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close releases the disk journal's handle (a no-op for memory-only
// caches). The cache must not be used after Close.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.file == nil {
		return nil
	}
	return c.file.Close()
}

// Len returns the number of reachable rows: every disk-indexed row plus
// any memory-only rows not yet evicted.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.index)
	for key := range c.mem {
		if _, onDisk := c.index[key]; !onDisk {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the cache's traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get returns the cached row at key, checking memory then disk. The seed
// is a redundancy check: the address already commits to it, so a stored
// row under a different seed means hash collision or tampering and fails
// closed with ErrCache. A disk hit is promoted into the memory tier.
func (c *Cache) Get(key string, seed uint64) (sim.Result, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.mem[key]; ok {
		e := el.Value.(*entry)
		if e.seed != seed {
			return sim.Result{}, false, fmt.Errorf(
				"%w: row %.12s cached under seed %d, derived %d", ErrCache, key, e.seed, seed)
		}
		c.lru.MoveToFront(el)
		c.stats.MemoryHits++
		return e.result, true, nil
	}
	return c.getDiskLocked(key, seed)
}

// GetRaw is Get for a raw content address: the hex encoding lives on the
// stack and the memory probe converts it in place, so a memory hit — the
// steady state of a warmed sweep — allocates nothing. The two entry points
// address identical rows: GetRaw(k) ≡ Get(hex(k)).
func (c *Cache) GetRaw(key [AddrSize]byte, seed uint64) (sim.Result, bool, error) {
	var buf [2 * AddrSize]byte
	hex.Encode(buf[:], key[:])
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.mem[string(buf[:])]; ok {
		e := el.Value.(*entry)
		if e.seed != seed {
			return sim.Result{}, false, fmt.Errorf(
				"%w: row %.12s cached under seed %d, derived %d", ErrCache, e.key, e.seed, seed)
		}
		c.lru.MoveToFront(el)
		c.stats.MemoryHits++
		return e.result, true, nil
	}
	return c.getDiskLocked(string(buf[:]), seed)
}

// PutRaw is Put for a raw content address (see GetRaw).
func (c *Cache) PutRaw(key [AddrSize]byte, seed uint64, result sim.Result) error {
	var buf [2 * AddrSize]byte
	hex.Encode(buf[:], key[:])
	c.mu.Lock()
	defer c.mu.Unlock()
	// Alloc-free duplicate probes first: by content addressing a present
	// row is already the offered one, so the hot no-op path stays cheap.
	if _, ok := c.mem[string(buf[:])]; ok {
		return nil
	}
	if _, ok := c.index[string(buf[:])]; ok {
		return nil
	}
	return c.putLocked(string(buf[:]), seed, result)
}

// getDiskLocked serves a Get that missed the memory tier. Must be called
// with the lock held.
func (c *Cache) getDiskLocked(key string, seed uint64) (sim.Result, bool, error) {
	pos, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return sim.Result{}, false, nil
	}
	if pos.seed != seed {
		return sim.Result{}, false, fmt.Errorf(
			"%w: row %.12s journaled under seed %d, derived %d", ErrCache, key, pos.seed, seed)
	}
	buf := make([]byte, pos.len)
	if _, err := c.file.ReadAt(buf, pos.off); err != nil {
		return sim.Result{}, false, fmt.Errorf("resultcache: reading row %.12s: %w", key, err)
	}
	var row journalRow
	if err := strictUnmarshal(buf, &row); err != nil || row.Key != key || row.Seed != seed {
		return sim.Result{}, false, fmt.Errorf(
			"%w: row %.12s changed on disk after open (%v)", ErrCache, key, err)
	}
	row.Result.RestoreAliases()
	c.insert(key, seed, row.Result)
	c.stats.DiskHits++
	return row.Result, true, nil
}

// Put stores one computed row under its address. A key already cached (in
// either tier) is left untouched — by content addressing the stored row is
// already the one being offered.
func (c *Cache) Put(key string, seed uint64, result sim.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mem[key]; ok {
		return nil
	}
	if _, ok := c.index[key]; ok {
		return nil
	}
	return c.putLocked(key, seed, result)
}

// putLocked journals and inserts a row known to be absent from both tiers.
// Must be called with the lock held.
func (c *Cache) putLocked(key string, seed uint64, result sim.Result) error {
	if c.file != nil {
		line, err := json.Marshal(journalRow{Key: key, Seed: seed, Result: result})
		if err != nil {
			return fmt.Errorf("resultcache: encoding row: %w", err)
		}
		pos := diskPos{off: c.size, len: len(line), seed: seed}
		line = append(line, '\n')
		if _, err := c.file.Write(line); err != nil {
			return fmt.Errorf("resultcache: writing row: %w", err)
		}
		c.size += int64(len(line))
		c.index[key] = pos
	}
	c.insert(key, seed, result)
	c.stats.Stores++
	return nil
}

// insert adds a row to the memory tier, evicting from the LRU tail past
// capacity. Must be called with the lock held.
func (c *Cache) insert(key string, seed uint64, result sim.Result) {
	c.mem[key] = c.lru.PushFront(&entry{key: key, seed: seed, result: result})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.mem, oldest.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// writeLine appends one JSON line to the journal. Must be called with the
// lock held (or before the cache is shared).
func (c *Cache) writeLine(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("resultcache: encoding journal line: %w", err)
	}
	line = append(line, '\n')
	if _, err := c.file.Write(line); err != nil {
		return fmt.Errorf("resultcache: writing journal: %w", err)
	}
	c.size += int64(len(line))
	return nil
}

// decodeJournal strictly parses a journal's bytes into the key -> position
// index, validating every row (including its Result payload) without
// retaining the decoded rows — the memory tier fills on demand. Empty
// input is a fresh journal; input not ending in a newline is rejected
// (Open trims a torn tail before decoding).
func decodeJournal(data []byte) (map[string]diskPos, error) {
	index := make(map[string]diskPos)
	if len(data) == 0 {
		return index, nil
	}
	if data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("%w: truncated final line", ErrCache)
	}
	lines := bytes.Split(data[:len(data)-1], []byte("\n"))
	var header journalHeader
	if err := strictUnmarshal(lines[0], &header); err != nil {
		return nil, fmt.Errorf("%w: line 1: %v", ErrCache, err)
	}
	if header.Version != journalVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCache, header.Version)
	}
	if header.Schema != sim.ResultSchemaVersion {
		return nil, fmt.Errorf("%w: rows written under result schema %d, this build uses %d",
			ErrCache, header.Schema, sim.ResultSchemaVersion)
	}
	offset := int64(len(lines[0]) + 1)
	for i, raw := range lines[1:] {
		lineNo := i + 2
		var row journalRow
		if err := strictUnmarshal(raw, &row); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrCache, lineNo, err)
		}
		if len(row.Key) != 64 || !isHex(row.Key) {
			return nil, fmt.Errorf("%w: line %d: malformed row key", ErrCache, lineNo)
		}
		if _, dup := index[row.Key]; dup {
			return nil, fmt.Errorf("%w: line %d: row %.12s duplicated", ErrCache, lineNo, row.Key)
		}
		index[row.Key] = diskPos{off: offset, len: len(raw), seed: row.Seed}
		offset += int64(len(raw) + 1)
	}
	return index, nil
}

// strictUnmarshal decodes one JSON value rejecting unknown fields and
// trailing garbage.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// isHex reports whether s is entirely lowercase hex.
func isHex(s string) bool {
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}
