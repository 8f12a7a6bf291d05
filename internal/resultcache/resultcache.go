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
// Rows are written by appendRow into a reused buffer and read back by
// parseRow, a twin pair of schema-specific codecs that need no reflection.
// appendRow writes exactly the bytes json.Marshal writes for a row; parseRow
// accepts a strict subset of what encoding/json would (the compact form
// json.Marshal writes) and decodes it to the same values. encoding/json
// survives only as their test oracle and as the header line's decoder.
//
// The memory tier holds decoded rows under an LRU bound. Open streams the
// journal once, a line at a time: it builds a key -> byte-offset index of
// every row and keeps the newest rows it decoded, up to the memory tier's
// capacity, so a hit on a kept row costs no read and no second parse. A
// row Open did not keep is a disk hit of one ReadAt plus one parseRow,
// re-checked against the key and seed the caller derived and promoted into
// memory; the read and decode run outside the cache's lock, so workers'
// disk hits overlap. Writes are encoded outside the lock and appended under
// it through a single handle; the cache is safe for concurrent use by the
// engine's workers but assumes a single writing process per directory.
package resultcache

import (
	"bufio"
	"bytes"
	"container/list"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// the journal and the memory tier key rows by its 2*AddrSize-char hex
// form).
const AddrSize = 32

// DefaultMemoryEntries bounds the memory tier when the caller passes a
// non-positive capacity. At roughly 2-6 KB per decoded row this keeps the
// default cache in the tens of megabytes; Open fills the tier up to this
// bound with the journal's newest rows.
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

// entry is one decoded row in the memory tier. loaded marks a row Open
// kept from the journal that no GetRaw has served yet: its first hit counts
// as the disk hit it replaces.
type entry struct {
	key    string
	seed   uint64
	result sim.Result
	loaded bool
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
	// bufs holds the row encoding buffers no PutRaw is using, one per
	// concurrent writer at most. Unlike a sync.Pool it survives garbage
	// collections, so a buffer grows to the largest row once, not again
	// after every collection.
	bufs []*rowBuffer
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
// and never silently served from. On return the memory tier holds the
// journal's newest rows, up to capacity, as decoded by that validation.
func Open(dir string, capacity int) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: creating cache dir: %w", err)
	}
	file, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultcache: opening cache journal: %w", err)
	}
	c := NewMemory(capacity)
	c.file = file
	if err := c.load(); err != nil {
		file.Close()
		if errors.Is(err, ErrCache) {
			err = fmt.Errorf("%w (wipe %s to start over)", err, dir)
		}
		return nil, err
	}
	return c, nil
}

// load decodes the journal behind c.file into the index and the memory
// tier, trims a torn final line and gives an empty journal its header.
func (c *Cache) load() error {
	info, err := c.file.Stat()
	if err != nil {
		return fmt.Errorf("resultcache: reading cache journal: %w", err)
	}
	complete, err := completeLen(c.file, info.Size())
	if err != nil {
		return fmt.Errorf("resultcache: reading cache journal: %w", err)
	}
	if err := c.decodeJournal(io.NewSectionReader(c.file, 0, complete)); err != nil {
		return err
	}
	// Rows decoded but not kept were never served; they are not evictions.
	c.stats.Evictions = 0
	if torn := info.Size() - complete; torn > 0 {
		// Appends must start on a line boundary, so drop the torn line
		// from the file itself, not just from the index.
		if err := c.file.Truncate(complete); err != nil {
			return fmt.Errorf("resultcache: trimming torn journal tail: %w", err)
		}
		c.stats.TornBytes = uint64(torn)
	}
	c.size = complete
	if complete == 0 {
		return c.writeHeader()
	}
	return nil
}

// completeLen returns the length of the journal's complete lines: its
// first size bytes up to and including the last newline. It reads
// backwards from size, so it touches only the end of the journal.
func completeLen(r io.ReaderAt, size int64) (int64, error) {
	buf := make([]byte, min(size, 4096))
	for end := size; end > 0; {
		n := min(end, int64(len(buf)))
		if _, err := r.ReadAt(buf[:n], end-n); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			return end - n + int64(i) + 1, nil
		}
		end -= n
	}
	return 0, nil
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

// GetRaw returns the cached row at a raw content address, checking memory
// then disk. The seed is a redundancy check: the address already commits to
// it, so a stored row under a different seed means hash collision or
// tampering and fails closed with ErrCache. A disk hit is promoted into the
// memory tier; a row Open kept is already there, and its first hit counts
// as a disk hit. The address's hex encoding lives on the stack and the
// memory probe converts it in place, so a memory hit — the steady state of
// a warmed sweep — allocates nothing.
func (c *Cache) GetRaw(key [AddrSize]byte, seed uint64) (sim.Result, bool, error) {
	var buf [2 * AddrSize]byte
	hex.Encode(buf[:], key[:])
	c.mu.Lock()
	if el, ok := c.mem[string(buf[:])]; ok {
		defer c.mu.Unlock()
		e, err := c.memoryHitLocked(el, seed)
		if err != nil {
			return sim.Result{}, false, err
		}
		return e.result, true, nil
	}
	c.mu.Unlock()
	return c.getDisk(string(buf[:]), seed)
}

// memoryHitLocked checks a memory-tier hit's seed, marks it most recently
// used and counts it: as a disk hit on the first hit of a row Open kept,
// as a memory hit otherwise. Must be called with the lock held.
func (c *Cache) memoryHitLocked(el *list.Element, seed uint64) (*entry, error) {
	e := el.Value.(*entry)
	if e.seed != seed {
		return nil, fmt.Errorf(
			"%w: row %.12s cached under seed %d, derived %d", ErrCache, e.key, e.seed, seed)
	}
	c.lru.MoveToFront(el)
	if e.loaded {
		e.loaded = false
		c.stats.DiskHits++
	} else {
		c.stats.MemoryHits++
	}
	return e, nil
}

// PutRaw stores one computed row under its raw content address (see
// GetRaw). An address already cached (in either tier) is left untouched —
// by content addressing the stored row is already the one being offered.
func (c *Cache) PutRaw(key [AddrSize]byte, seed uint64, result sim.Result) error {
	var buf [2 * AddrSize]byte
	hex.Encode(buf[:], key[:])
	k := string(buf[:])
	// Encode before taking the lock, so other workers' hits do not wait on
	// it. The engine stores only rows that missed, so a duplicate's wasted
	// encoding is rare.
	var line []byte
	if c.file != nil {
		rb := c.takeBuffer()
		defer c.returnBuffer(rb)
		if err := appendRow(rb, &journalRow{Key: k, Seed: seed, Result: result}); err != nil {
			return fmt.Errorf("resultcache: encoding row: %w", err)
		}
		line = rb.line
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mem[k]; ok {
		return nil
	}
	if _, ok := c.index[k]; ok {
		return nil
	}
	return c.putLocked(k, seed, result, line)
}

// takeBuffer takes an encoding buffer off the free list, or makes one,
// and empties its line.
func (c *Cache) takeBuffer() *rowBuffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.bufs)
	if n == 0 {
		return &rowBuffer{}
	}
	rb := c.bufs[n-1]
	c.bufs = c.bufs[:n-1]
	rb.line = rb.line[:0]
	return rb
}

// returnBuffer puts a buffer takeBuffer gave out back on the free list.
func (c *Cache) returnBuffer(rb *rowBuffer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bufs = append(c.bufs, rb)
}

// getDisk serves a GetRaw that missed the memory tier. The lock covers the
// index probe and the promotion but not the read and decode, so workers'
// disk hits overlap. A concurrent GetRaw may promote the same row in between;
// both decoded the same bytes, and the first promotion stays.
func (c *Cache) getDisk(key string, seed uint64) (sim.Result, bool, error) {
	c.mu.Lock()
	pos, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		c.mu.Unlock()
		return sim.Result{}, false, nil
	}
	c.mu.Unlock()
	if pos.seed != seed {
		return sim.Result{}, false, fmt.Errorf(
			"%w: row %.12s journaled under seed %d, derived %d", ErrCache, key, pos.seed, seed)
	}
	line := make([]byte, pos.len)
	if _, err := c.file.ReadAt(line, pos.off); err != nil {
		return sim.Result{}, false, fmt.Errorf("resultcache: reading row %.12s: %w", key, err)
	}
	var row journalRow
	if err := parseRow(line, &row); err != nil {
		return sim.Result{}, false, fmt.Errorf(
			"%w: row %.12s changed on disk after open: parse error: %v", ErrCache, key, err)
	}
	if row.Key != key {
		return sim.Result{}, false, fmt.Errorf(
			"%w: row %.12s changed on disk after open: key mismatch (now %.12s)", ErrCache, key, row.Key)
	}
	if row.Seed != seed {
		return sim.Result{}, false, fmt.Errorf(
			"%w: row %.12s changed on disk after open: seed mismatch (now %d, derived %d)", ErrCache, key, row.Seed, seed)
	}
	row.Result.RestoreAliases()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mem[key]; !ok {
		c.insert(key, seed, row.Result, false)
	}
	c.stats.DiskHits++
	return row.Result, true, nil
}

// putLocked journals (as line, its encoding with the trailing newline) and
// inserts a row known to be absent from both tiers. Must be called with the
// lock held.
func (c *Cache) putLocked(key string, seed uint64, result sim.Result, line []byte) error {
	if c.file != nil {
		pos := diskPos{off: c.size, len: len(line) - 1, seed: seed}
		if _, err := c.file.Write(line); err != nil {
			return fmt.Errorf("resultcache: writing row: %w", err)
		}
		c.size += int64(len(line))
		c.index[key] = pos
	}
	c.insert(key, seed, result, false)
	c.stats.Stores++
	return nil
}

// insert adds a row to the memory tier, evicting from the LRU tail past
// capacity. Must be called with the lock held.
func (c *Cache) insert(key string, seed uint64, result sim.Result, loaded bool) {
	c.mem[key] = c.lru.PushFront(&entry{key: key, seed: seed, result: result, loaded: loaded})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.mem, oldest.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// writeHeader appends the journal's header line. Must be called before the
// cache is shared.
func (c *Cache) writeHeader() error {
	line := appendHeader(nil, journalHeader{Version: journalVersion, Schema: sim.ResultSchemaVersion})
	n, err := c.file.Write(line)
	if err != nil {
		return fmt.Errorf("resultcache: writing journal: %w", err)
	}
	c.size += int64(n)
	return nil
}

// decodeJournal strictly parses a journal into the key -> position index,
// validating every row (including its Result payload) with parseRow, and
// inserts each decoded row into the memory tier in journal order, so the
// tier ends up holding the newest rows. It streams r a line at a time
// through one reused buffer rather than holding the journal. Empty input is
// a fresh journal; input not ending in a newline is rejected (Open trims a
// torn tail before decoding). Must be called before the cache is shared.
func (c *Cache) decodeJournal(r io.Reader) error {
	c.index = make(map[string]diskPos)
	br := bufio.NewReader(r)
	var long []byte // reassembles a line longer than br's buffer
	var offset int64
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err == io.EOF {
			if len(line) > 0 {
				return fmt.Errorf("%w: truncated final line", ErrCache)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("resultcache: reading cache journal: %w", err)
		}
		raw := line[:len(line)-1]
		if lineNo == 1 {
			if err := checkHeader(raw); err != nil {
				return err
			}
			offset = int64(len(line))
			continue
		}
		var row journalRow
		if err := parseRow(raw, &row); err != nil {
			return fmt.Errorf("%w: line %d: %v", ErrCache, lineNo, err)
		}
		if len(row.Key) != 64 || !isHex(row.Key) {
			return fmt.Errorf("%w: line %d: malformed row key", ErrCache, lineNo)
		}
		if _, dup := c.index[row.Key]; dup {
			return fmt.Errorf("%w: line %d: row %.12s duplicated", ErrCache, lineNo, row.Key)
		}
		c.index[row.Key] = diskPos{off: offset, len: len(raw), seed: row.Seed}
		offset += int64(len(line))
		row.Result.RestoreAliases()
		c.insert(row.Key, row.Seed, row.Result, true)
	}
}

// checkHeader validates the journal's first line (without its newline).
func checkHeader(raw []byte) error {
	var header journalHeader
	if err := strictUnmarshal(raw, &header); err != nil {
		return fmt.Errorf("%w: line 1: %v", ErrCache, err)
	}
	if header.Version != journalVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCache, header.Version)
	}
	if header.Schema != sim.ResultSchemaVersion {
		return fmt.Errorf("%w: rows written under result schema %d, this build uses %d",
			ErrCache, header.Schema, sim.ResultSchemaVersion)
	}
	return nil
}

// strictUnmarshal decodes one JSON value rejecting unknown fields and
// trailing garbage. It decodes the header line; rows go through parseRow,
// for which it is the test oracle.
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
