package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ethselfish/ethselfish/internal/jobkey"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// The traced run cannot see inside the experiments engine, which has no
// telemetry yet. Instead it runs a replica of the engine's row pipeline from
// the benchmark's own code, calling each layer's public function and
// recording a span around every call, and proves the replica faithful by
// comparing its rows with the journal a product repetition wrote. Once the
// engine records its own spans, the replica should be deleted.

// span is one timed call at a layer boundary.
type span struct {
	Name  string `json:"name"`
	Layer string `json:"layer"`

	// Trace is the row's content address; per-job spans carry the job's
	// key and sweep-wide spans none.
	Trace string `json:"trace"`

	ID     int   `json:"id"`
	Parent int   `json:"parent"` // -1 for a root span
	Worker int   `json:"worker"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now reads the tracer's monotonic clock in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record stores a root span and its children, linking each child to it.
func (t *tracer) record(root span, children ...span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root.ID, root.Parent = len(t.spans), -1
	t.spans = append(t.spans, root)
	for _, c := range children {
		c.ID, c.Parent = len(t.spans), root.ID
		t.spans = append(t.spans, c)
	}
}

// replicaRow is one unique row of the replicated sweep.
type replicaRow struct {
	job    int
	seed   uint64
	addr   jobkey.Key
	res    sim.Result
	hit    bool // served by the cache
	failed bool
}

// replica is a traced pass of a workload's grid through the row pipeline.
type replica struct {
	tr                 *tracer
	workers            int
	cfgs               []sim.Config
	rows               []replicaRow // unique rows in grid order
	gridRows           int
	start, end         int64 // the replica's wall, on the tracer's clock
	mapStart, mapEnd   int64 // the parallel phase
	journalBytes       int64
	cacheErrs, simErrs int
}

// runReplica sends every row of the workload's grid through
// jobkey.ForConfig/SeedBase/Key.Row → Cache.GetRaw → sim.Runner.Run →
// Cache.PutRaw, the pipeline runSimGrid runs, with the cache opened on dir.
// The sequential phases run on worker 0, the rows on workers parallel.MapWith
// numbers 0..workers-1.
func runReplica(w *workload, sz size, seed uint64, dir string, workers int) (*replica, error) {
	tr := newTracer()
	rp := &replica{tr: tr, workers: workers}
	rp.start = tr.now()

	t0 := tr.now()
	cache, err := resultcache.Open(dir, 0)
	tr.record(span{Name: "resultcache.Open", Layer: "resultcache", Start: t0, End: tr.now()})
	if err != nil {
		return nil, err
	}

	// Resolve the grid as the engine does: build each job's config, warm
	// its decision tables, key it.
	t0 = tr.now()
	cfgs, err := w.grid(sz.Blocks)
	if err != nil {
		cache.Close()
		return nil, err
	}
	rp.cfgs = cfgs
	keys := make([]jobkey.Key, len(cfgs))
	bases := make([]uint64, len(cfgs))
	var kids []span
	for j := range cfgs {
		s0 := tr.now()
		sim.WarmDecisionTables(cfgs[j].Strategies)
		s1 := tr.now()
		keys[j] = jobkey.ForConfig(cfgs[j])
		s2 := tr.now()
		bases[j] = jobkey.SeedBase(seed, cfgs[j])
		s3 := tr.now()
		id := keys[j].String()
		kids = append(kids,
			span{Name: "sim.WarmDecisionTables", Layer: "sim", Trace: id, Start: s0, End: s1},
			span{Name: "jobkey.ForConfig", Layer: "jobkey", Trace: id, Start: s1, End: s2},
			span{Name: "jobkey.SeedBase", Layer: "jobkey", Trace: id, Start: s2, End: s3})
	}
	tr.record(span{Name: "experiments.resolve", Layer: "experiments", Start: t0, End: tr.now()}, kids...)

	// Address every row and drop repeated addresses.
	t0 = tr.now()
	kids = kids[:0]
	seen := make(map[jobkey.Key]bool)
	for j := range cfgs {
		for r := 0; r < sz.Runs; r++ {
			s0 := tr.now()
			rowSeed := sim.DeriveSeed(bases[j], r)
			addr := keys[j].Row(rowSeed)
			kids = append(kids, span{Name: "jobkey.Row", Layer: "jobkey", Trace: addr.String(), Start: s0, End: tr.now()})
			rp.gridRows++
			if !seen[addr] {
				seen[addr] = true
				rp.rows = append(rp.rows, replicaRow{job: j, seed: rowSeed, addr: addr})
			}
		}
	}
	tr.record(span{Name: "experiments.address", Layer: "experiments", Start: t0, End: tr.now()}, kids...)

	type lane struct {
		rn *sim.Runner
		id int
	}
	var lanes, cacheErrs, simErrs atomic.Int32
	rp.mapStart = tr.now()
	_, err = parallel.MapWith(workers, len(rp.rows),
		func() *lane { return &lane{rn: sim.NewRunner(), id: int(lanes.Add(1) - 1)} },
		func(l *lane, u int) (struct{}, error) {
			t0 := tr.now()
			row := &rp.rows[u]
			trace := row.addr.String()
			kids := make([]span, 0, 3)
			add := func(name, layer string, start int64) int64 {
				end := tr.now()
				kids = append(kids, span{Name: name, Layer: layer, Trace: trace, Worker: l.id, Start: start, End: end})
				return end
			}
			res, hit, err := cache.GetRaw(row.addr, row.seed)
			t1 := add("resultcache.GetRaw", "resultcache", t0)
			switch {
			case err != nil:
				cacheErrs.Add(1)
				row.failed = true
			case !hit:
				cfg := rp.cfgs[row.job]
				cfg.Seed = row.seed
				res, err = l.rn.Run(cfg)
				t2 := add("sim.Runner.Run", "sim", t1)
				if err != nil {
					simErrs.Add(1)
					row.failed = true
					break
				}
				if err := cache.PutRaw(row.addr, row.seed, res); err != nil {
					cacheErrs.Add(1)
					row.failed = true
				}
				add("resultcache.PutRaw", "resultcache", t2)
			}
			row.res, row.hit = res, hit
			tr.record(span{Name: "parallel.row", Layer: "parallel", Trace: trace, Worker: l.id, Start: t0, End: tr.now()}, kids...)
			return struct{}{}, nil
		})
	rp.mapEnd = tr.now()
	rp.cacheErrs, rp.simErrs = int(cacheErrs.Load()), int(simErrs.Load())

	t0 = tr.now()
	cerr := cache.Close()
	tr.record(span{Name: "resultcache.Close", Layer: "resultcache", Start: t0, End: tr.now()})
	rp.end = tr.now()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, fmt.Errorf("closing replica cache: %w", cerr)
	}
	rp.journalBytes, err = dirBytes(dir)
	return rp, err
}

// dirBytes sums the sizes of the files directly in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// compareJournal counts the replica rows the product's journal in dir lacks
// or holds with a different Result, plus any difference in row count.
func compareJournal(dir string, rp *replica) (int, error) {
	cache, err := resultcache.Open(dir, len(rp.rows))
	if err != nil {
		return 0, err
	}
	defer cache.Close()
	mismatches := len(rp.rows) - cache.Len()
	if mismatches < 0 {
		mismatches = -mismatches
	}
	for _, row := range rp.rows {
		got, ok, err := cache.GetRaw(row.addr, row.seed)
		if err != nil {
			return 0, err
		}
		if !ok || !sameResult(got, row.res) {
			mismatches++
		}
	}
	return mismatches, nil
}

// sameResult compares two Results by their serialized form, the form the
// cache stores.
func sameResult(a, b sim.Result) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// spanStats derives time shares from the replica's spans.
type spanStats struct {
	durs      map[string][]float64 // span durations in ns, by name
	layerSelf map[string]float64   // self time in ns, by layer
	idle      float64              // worker time outside any root span, ns
	workerNs  float64              // workers × replica wall
}

func (rp *replica) stats() spanStats {
	st := spanStats{durs: make(map[string][]float64), layerSelf: make(map[string]float64)}
	spans := rp.tr.spans
	children := make(map[int][]interval)
	roots := make(map[int][]interval) // root spans by worker
	for _, s := range spans {
		st.durs[s.Name] = append(st.durs[s.Name], float64(s.End-s.Start))
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		} else {
			roots[s.Worker] = append(roots[s.Worker], interval{s.Start, s.End})
		}
	}
	for _, s := range spans {
		self := s.End - s.Start - unionLength(children[s.ID], s.Start, s.End)
		st.layerSelf[s.Layer] += float64(self)
	}
	wall := rp.end - rp.start
	for w := 0; w < rp.workers; w++ {
		st.idle += float64(wall - unionLength(roots[w], rp.start, rp.end))
	}
	st.workerNs = float64(rp.workers) * float64(wall)
	return st
}

// accounted returns the layers' self time plus idle time as a share of the
// replica's worker time; spans that nest and never overlap on one worker
// give exactly 1.
func (st spanStats) accounted() float64 {
	total := st.idle
	for _, ns := range st.layerSelf {
		total += ns
	}
	return total / st.workerNs
}

// writeSpans writes the replica's spans to dir/<workload>.spans.json.
func (rp *replica) writeSpans(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Workers  int    `json:"workers"`
		Start    int64  `json:"start_ns"`
		End      int64  `json:"end_ns"`
		Spans    []span `json:"spans"`
	}{workload, seed, rp.workers, rp.start, rp.end, rp.tr.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.json"), data, 0o644)
}

// accountingTolerance is how far the self-time shares plus idle may stray
// from the replica's worker time before the traced run fails.
const accountingTolerance = 0.05

// runTraced runs one traced pass of a workload: an untraced product
// repetition, the replica, the comparison of the two, the layer probes, and
// the per-layer metrics derived from them.
func runTraced(w *workload, sz size, seed uint64, work, spansDir string) (*report, error) {
	if sz.FixtureRuns > 0 {
		if err := writeFixture(w, sz, seed, work); err != nil {
			return nil, err
		}
	}
	if _, err := setUp(w, sz); err != nil {
		return nil, err
	}
	productDir := filepath.Join(work, "product")
	if err := freshCache(sz, work, productDir); err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	start := time.Now()
	out, err := repetition(w, productDir, options(sz, seed))
	productWall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("product repetition: %w", err)
	}
	if err := checkReference(sz, work, &out); err != nil {
		return nil, err
	}

	replicaDir := filepath.Join(work, "replica")
	if err := freshCache(sz, work, replicaDir); err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	rp, err := runReplica(w, sz, seed, replicaDir, runtime.NumCPU())
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	mismatches, err := compareJournal(productDir, rp)
	if err != nil {
		return nil, fmt.Errorf("comparing replica with the product journal: %w", err)
	}
	pr, err := runProbes(rp, sz.Draws, seed)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if pr.mismatch {
		mismatches++
	}

	st := rp.stats()
	r := newReport()
	rp.layerMetrics(r, st, pr)
	wall := float64(rp.end - rp.start)
	r.set("trace.overhead_share", wall/float64(productWall)-1,
		fmt.Sprintf("replica %.3f s vs product %.3f s", wall/1e9, productWall.Seconds()))
	r.set("trace.replica_mismatches", float64(mismatches), fmt.Sprintf("of %d rows", len(rp.rows)))

	r.failures = out.failures
	acct := st.accounted()
	shares := fmt.Sprintf("idle %.4f", st.idle/st.workerNs)
	for _, layer := range []string{"experiments", "parallel", "jobkey", "resultcache", "sim"} {
		shares += fmt.Sprintf(", %s %.4f", layer, st.layerSelf[layer]/st.workerNs)
	}
	r.notes = append(r.notes,
		fmt.Sprintf("worker time %d × %.3f s: %s", rp.workers, wall/1e9, shares),
		fmt.Sprintf("layer self time plus idle = %.4f of worker time", acct))
	if math.Abs(acct-1) > accountingTolerance {
		r.failures = append(r.failures, fmt.Sprintf("layer self time plus idle is %.3f of worker time", acct))
	}
	if mismatches > 0 {
		r.failures = append(r.failures, fmt.Sprintf("%d replica rows differ from the product journal", mismatches))
	}
	r.res.Attempted = len(rp.rows)
	r.res.Failed = rp.cacheErrs + rp.simErrs
	r.res.Correct = r.res.Failed == 0 && len(r.failures) == 0
	if spansDir != "" {
		if err := rp.writeSpans(spansDir, w.name, seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// layerMetrics reports the replica's and the probes' per-layer metrics.
func (rp *replica) layerMetrics(r *report, st spanStats, pr probes) {
	share := func(layer string) float64 { return st.layerSelf[layer] / st.workerNs }
	p50 := func(name string, scale float64) (float64, string) {
		d := st.durs[name]
		if len(d) == 0 {
			return 0, "n=0"
		}
		return median(d) / scale, fmt.Sprintf("n=%d", len(d))
	}
	setP50 := func(metric, span string, scale float64) {
		v, note := p50(span, scale)
		r.set(metric, v, note)
	}
	setTail := func(metric, span string, scale float64) {
		if v, pct, ok := tail(st.durs[span]); ok {
			r.set(metric, v/scale, fmt.Sprintf("p%.1f of %d", pct, len(st.durs[span])))
		}
	}

	mapWall := float64(rp.mapEnd - rp.mapStart)
	var rowBusy float64
	lastEnd := make([]int64, rp.workers)
	for i := range lastEnd {
		lastEnd[i] = rp.mapStart
	}
	for _, s := range rp.tr.spans {
		if s.Name == "parallel.row" {
			rowBusy += float64(s.End - s.Start)
			lastEnd[s.Worker] = max(lastEnd[s.Worker], s.End)
		}
	}
	firstIdle := rp.mapEnd
	for _, e := range lastEnd {
		firstIdle = min(firstIdle, e)
	}
	r.set("parallel.efficiency", rowBusy/(float64(rp.workers)*mapWall), fmt.Sprintf("%d workers", rp.workers))
	r.set("parallel.tail_ms", float64(rp.mapEnd-firstIdle)/1e6, "first idle worker to the last row's end")

	var computed, hits, regular, events int
	for _, row := range rp.rows {
		switch {
		case row.failed:
		case row.hit:
			hits++
		default:
			computed++
		}
		regular += row.res.RegularCount
		events += row.res.Blocks
	}
	blocks := computed * rp.cfgs[0].Blocks
	r.set("experiments.rows", float64(rp.gridRows), fmt.Sprintf("%d unique", len(rp.rows)))
	r.set("experiments.rows_computed", float64(computed), "")

	setP50("jobkey.config_us_p50", "jobkey.ForConfig", 1e3)
	setP50("jobkey.row_us_p50", "jobkey.Row", 1e3)
	r.set("jobkey.busy_share", share("jobkey"), "self time over worker time")

	open, _ := p50("resultcache.Open", 1e6)
	r.set("resultcache.open_ms", open, "")
	r.set("resultcache.journal_mb", float64(rp.journalBytes)/1e6, "after the replica")
	setP50("resultcache.get_us_p50", "resultcache.GetRaw", 1e3)
	setTail("resultcache.get_us_tail", "resultcache.GetRaw", 1e3)
	setP50("resultcache.put_us_p50", "resultcache.PutRaw", 1e3)
	setTail("resultcache.put_us_tail", "resultcache.PutRaw", 1e3)
	r.set("resultcache.hit_ratio", float64(hits)/float64(len(rp.rows)), fmt.Sprintf("%d of %d gets", hits, len(rp.rows)))
	var gets []interval
	var getBusy float64
	for _, s := range rp.tr.spans {
		if s.Name == "resultcache.GetRaw" {
			gets = append(gets, interval{s.Start, s.End})
			getBusy += float64(s.End - s.Start)
		}
	}
	r.set("resultcache.get_concurrency", getBusy/float64(unionLength(gets, rp.start, rp.end)),
		"summed get time over the union of get intervals")
	r.set("resultcache.busy_share", share("resultcache"), "self time over worker time")
	r.set("resultcache.errors", float64(rp.cacheErrs), "")

	setP50("sim.run_ms_p50", "sim.Runner.Run", 1e6)
	setTail("sim.run_ms_tail", "sim.Runner.Run", 1e6)
	var runNs float64
	for _, d := range st.durs["sim.Runner.Run"] {
		runNs += d
	}
	nsPerBlock := runNs / float64(max(blocks, 1))
	r.set("sim.ns_per_block", nsPerBlock, fmt.Sprintf("%d workers", rp.workers))
	r.set("sim.blocks", float64(blocks), "simulated by the replica")
	r.set("sim.regular_ratio", float64(regular)/float64(max(events, 1)), "regular blocks over events")
	r.set("sim.busy_share", share("sim"), "self time over worker time")
	r.set("sim.errors", float64(rp.simErrs), "")
	r.set("sim.table_lookup_ns", pr.lookupNs, fmt.Sprintf("%d tables", pr.tables))
	r.set("sim.table_compile_ms", pr.compileMs, fmt.Sprintf("median of %d", pr.tables))

	// The ledger prices one block event from the probes: one producer
	// sample, one extend, one settle, two table lookups, and on timed
	// workloads one exponential draw and one difficulty step.
	explained := pr.sampleNs + pr.extendNs + pr.settleNs + 2*pr.lookupNs
	if pr.timed {
		explained += pr.expUnitNs + pr.observeNs
	}
	r.set("sim.loop_self_ns_per_block", nsPerBlock-explained, fmt.Sprintf("ledger explains %.1f ns", explained))
	r.set("sim.ledger_explained_share", explained/nsPerBlock, "")

	r.set("chain.extend_ns_per_block", pr.extendNs, pr.chainNote)
	r.set("chain.settle_ns_per_block", pr.settleNs, pr.chainNote)
	r.set("chain.tree_bytes_per_block", pr.treeBytes, pr.chainNote)
	r.set("mining.sample_ns", pr.sampleNs, "")
	r.set("rng.uint64_ns", pr.uint64Ns, "")
	r.set("rng.float64_ns", pr.float64Ns, "")
	r.set("rng.expunit_ns", pr.expUnitNs, "")
	r.set("difficulty.observe_ns", pr.observeNs, pr.observeNote)
	r.set("core.solve_ms_p50", pr.solveMs, fmt.Sprintf("n=%d", pr.solves))
}
