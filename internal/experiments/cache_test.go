package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// TestCacheCrossSweepReuse is the acceptance test for partial-grid reuse:
// a Fig. 8 point cached by one invocation is served — not recomputed — to
// a best-response sweep that contains the same (alpha, gamma) point,
// because both resolve to the same canonical content address (Fig. 8's
// implicit Algorithm 1 and the search's explicit [algorithm1] candidate
// canonicalize identically).
func TestCacheCrossSweepReuse(t *testing.T) {
	opts := Options{Runs: 2, Blocks: 2000, Seed: 7, Parallelism: 2}
	grid := sweep(fig8AlphaStart, fig8AlphaMax, fig8AlphaStep)
	alphas := []float64{grid[7], grid[11]} // exact Fig. 8 grid values
	gammas := []float64{fig8Gamma}
	specs := []sim.StrategySpec{sim.MustStrategySpec("algorithm1")}

	fig8Want, err := Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	brWant, err := bestResponse(opts, gammas, alphas, specs)
	if err != nil {
		t.Fatal(err)
	}

	cache := resultcache.NewMemory(0)
	copts := opts
	copts.Cache = cache
	fig8Got, err := Fig8(copts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig8Got, fig8Want) {
		t.Fatal("cached Fig8 differs from uncached Fig8")
	}
	after := cache.Stats()
	if want := uint64(len(grid) * opts.Runs); after.Stores != want {
		t.Fatalf("Fig8 stored %d rows, want %d", after.Stores, want)
	}

	brGot, err := bestResponse(copts, gammas, alphas, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(brGot, brWant) {
		t.Error("best-response sweep served from the Fig8 cache differs from recomputation")
	}
	s := cache.Stats()
	if s.Misses != after.Misses || s.Stores != after.Stores {
		t.Errorf("best-response recomputed cached Fig8 points: misses %d -> %d, stores %d -> %d",
			after.Misses, s.Misses, after.Stores, s.Stores)
	}
	if got, want := s.Hits()-after.Hits(), uint64(len(alphas)*len(gammas)*opts.Runs); got != want {
		t.Errorf("best-response took %d cache hits, want %d", got, want)
	}
}

// TestCacheWarmRerunBitIdentical: rerunning a sweep against a warm cache —
// same process or a fresh one over the disk journal — serves every row
// from the cache and reproduces the Series bit for bit.
func TestCacheWarmRerunBitIdentical(t *testing.T) {
	opts := Options{Runs: 2, Blocks: 2000, Seed: 5, Parallelism: 4}
	want, err := PoolWars(opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := uint64(len(want.Rows) * opts.Runs)

	dir := t.TempDir()
	c1, err := resultcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	copts := opts
	copts.Cache = c1
	got, err := PoolWars(copts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cold cached PoolWars differs from uncached")
	}
	if s := c1.Stats(); s.Misses != rows || s.Stores != rows {
		t.Fatalf("cold run stats = %+v, want %d misses and stores", s, rows)
	}

	warm, err := PoolWars(copts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Error("warm rerun differs from cold run")
	}
	if s := c1.Stats(); s.MemoryHits != rows || s.Misses != rows {
		t.Errorf("warm rerun stats = %+v, want %d memory hits and no new misses", s, rows)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh invocation over the same cache directory serves the whole
	// sweep from disk.
	c2, err := resultcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	copts.Cache = c2
	reloaded, err := PoolWars(copts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reloaded, want) {
		t.Error("disk-warm rerun differs from cold run")
	}
	if s := c2.Stats(); s.DiskHits != rows || s.Misses != 0 {
		t.Errorf("disk-warm stats = %+v, want %d disk hits and 0 misses", s, rows)
	}
}

// TestCacheDedupeWithinSweep: jobs resolving to the same content address
// within one sweep are simulated once — duplicates never even consult the
// cache; the representative's rows are scattered to them.
func TestCacheDedupeWithinSweep(t *testing.T) {
	opts := Options{Runs: 2, Blocks: 1000, Seed: 3, Parallelism: 2}
	job := simJob{alpha: 0.3, build: func(*mining.Population) sim.Config {
		return sim.Config{Gamma: 0.5}
	}}

	single, err := runSimGrid(opts, []simJob{job})
	if err != nil {
		t.Fatal(err)
	}

	cache := resultcache.NewMemory(0)
	opts.Cache = cache
	series, err := runSimGrid(opts, []simJob{job, job, job})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(series); j++ {
		if !reflect.DeepEqual(series[j], series[0]) {
			t.Fatalf("duplicate job %d differs from its representative", j)
		}
	}
	if !reflect.DeepEqual(series[0].Runs, single[0].Runs) {
		t.Error("deduplicated sweep differs from a single-job sweep")
	}
	s := cache.Stats()
	if s.Misses != uint64(opts.Runs) || s.Stores != uint64(opts.Runs) || s.Hits() != 0 {
		t.Errorf("stats = %+v: want exactly one compute per unique row (%d misses, %d stores, 0 hits)",
			s, opts.Runs, opts.Runs)
	}
}

// TestPrecisionCacheReuse: the adaptive precision study consults the cache
// per run; a repeat of the same study against a warm cache computes
// nothing new and reproduces the result exactly.
func TestPrecisionCacheReuse(t *testing.T) {
	opts := Options{Blocks: 2000, Seed: 11}
	pc := PrecisionConfig{
		Alphas:       []float64{0.25},
		TargetRadius: 0.01,
		MaxRuns:      8,
		BatchRuns:    4,
	}
	want, err := Precision(opts, pc)
	if err != nil {
		t.Fatal(err)
	}

	cache := resultcache.NewMemory(0)
	copts := opts
	copts.Cache = cache
	got, err := Precision(copts, pc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached precision study differs from uncached")
	}
	misses := cache.Stats().Misses
	again, err := Precision(copts, pc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Error("warm precision study differs from cold study")
	}
	if s := cache.Stats(); s.Misses != misses {
		t.Errorf("warm precision study computed %d new rows, want 0", s.Misses-misses)
	}
}

// testJobs is a small two-point Fig. 8-style grid.
func testJobs() []simJob {
	alphas := []float64{0.2, 0.35}
	jobs := make([]simJob, len(alphas))
	for i, alpha := range alphas {
		jobs[i] = simJob{alpha: alpha, build: func(*mining.Population) sim.Config {
			return sim.Config{Gamma: 0.5}
		}}
	}
	return jobs
}

// TestCacheCancelThenResume interrupts a real sweep over a disk cache via
// context cancellation, then reruns it over the journal the interrupt left
// behind: the resumed sweep must match an uninterrupted one bit for bit and
// compute exactly the rows the first pass did not store.
func TestCacheCancelThenResume(t *testing.T) {
	opts := Options{Runs: 4, Blocks: 20000, Seed: 3, Parallelism: 2}
	jobs := testJobs()
	want, err := runSimGrid(opts, jobs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cache, err := resultcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	interrupted := opts
	interrupted.Ctx = ctx
	interrupted.Cache = cache
	if _, err := runSimGrid(interrupted, jobs); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("interrupted sweep err = %v, want nil or context.DeadlineExceeded", err)
	}
	stored := cache.Stats().Stores
	t.Logf("%d of %d rows stored before the cancel", stored, len(jobs)*opts.Runs)
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	cache, err = resultcache.Open(dir, 0)
	if err != nil {
		t.Fatalf("journal left by a graceful cancellation must reopen cleanly: %v", err)
	}
	defer cache.Close()
	resumed := opts
	resumed.Cache = cache
	got, err := runSimGrid(resumed, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("sweep resumed after cancellation differs from uninterrupted sweep")
	}
	rows := uint64(len(jobs) * opts.Runs)
	if s := cache.Stats(); s.Misses != rows-stored || s.DiskHits != stored {
		t.Errorf("resume stats = %+v, want %d misses and %d disk hits (%d rows stored before the cancel)",
			s, rows-stored, stored, stored)
	}
	if cache.Len() != int(rows) {
		t.Errorf("resumed journal holds %d rows, want the complete %d", cache.Len(), rows)
	}
}

// TestCacheTamperedSeedRejected: a journaled row whose seed does not match
// the seed the sweep derives for its address (hash collision or tampering)
// fails the rerun with ErrCache, wrapped in a JobError naming the row.
func TestCacheTamperedSeedRejected(t *testing.T) {
	opts := Options{Runs: 2, Blocks: 1000, Seed: 7, Parallelism: 1}
	jobs := testJobs()
	dir := t.TempDir()
	cache, err := resultcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = cache
	if _, err := runSimGrid(opts, jobs); err != nil {
		t.Fatal(err)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	// Tamper with the last row's seed; with one worker that is row (1,1).
	path := filepath.Join(dir, "results.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var row map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &row); err != nil {
		t.Fatal(err)
	}
	var seed uint64
	if err := json.Unmarshal(row["seed"], &seed); err != nil {
		t.Fatalf("last journal line has no seed: %v", err)
	}
	row["seed"] = json.RawMessage(fmt.Sprint(seed + 1))
	tampered, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	lines[len(lines)-1] = string(tampered)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cache, err = resultcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	opts.Cache = cache
	_, err = runSimGrid(opts, jobs)
	if !errors.Is(err, resultcache.ErrCache) {
		t.Fatalf("err = %v, want resultcache.ErrCache", err)
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v (%T), want *JobError", err, err)
	}
	if je.Point != 1 || je.Run != 1 {
		t.Errorf("JobError names (%d,%d), want the tampered row (1,1)", je.Point, je.Run)
	}
}

// TestResultJSONRoundTrip: the Result encoding round-trips exactly (after
// RestoreAliases), which is what makes journaled rows interchangeable with
// freshly computed ones. A timed multi-pool run populates every field.
func TestResultJSONRoundTrip(t *testing.T) {
	pop, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name string
		cfg  sim.Config
	}{
		{"timeless two-agent", sim.Config{Gamma: 0.5, Blocks: 2000, Seed: 7}},
		{"timed multi-pool", sim.Config{
			Population: pop,
			Gamma:      0.3,
			Blocks:     3000,
			Seed:       9,
			Time:       sim.TimeConfig{Enabled: true},
			Strategies: []sim.Strategy{sim.Algorithm1{}, sim.Stubborn{Lead: true}},
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := tt.cfg
			if cfg.Population == nil {
				p, err := mining.TwoAgent(0.35)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Population = p
			}
			want, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			var got sim.Result
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			got.RestoreAliases()
			if !reflect.DeepEqual(got, want) {
				t.Error("Result does not round-trip through JSON")
			}
		})
	}
}
