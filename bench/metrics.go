package main

// metricDef names one reported metric. BENCHMARK.json at the repository root
// lists the same metrics; the drift-guard test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the drivers sees, reported by the
// untraced run. A repetition that fails and an output check that fails are
// reported through the result's failed and correct fields instead of as
// metrics, because a metric must never read zero.
//
// The time bounds are wide because the 2-vCPU VMs the benchmark was
// measured on change speed by up to 2x over minutes, with no steal time to
// show for it: a fixed CPU-bound loop took 0.33 s and later 0.63 s, and the
// same fig8-paper repetition 4.4 s and later 7.6 s. Memory metrics do not
// drift.
var endToEnd = []metricDef{
	{"sweep_s", "s", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"alloc_mb", "MB/rep", "lower", 0.10},
}

// perLayer are the traced run's metrics, named <layer>.<metric> after the
// repository's internal packages.
var perLayer = []metricDef{
	{"parallel.efficiency", "ratio", "higher", 0},
	{"parallel.tail_ms", "ms", "lower", 0},
	{"experiments.rows", "count", "higher", 0},
	{"experiments.rows_computed", "count", "lower", 0},
	{"jobkey.config_us_p50", "us", "lower", 0},
	{"jobkey.row_us_p50", "us", "lower", 0},
	{"jobkey.busy_share", "ratio", "lower", 0},
	{"resultcache.open_ms", "ms", "lower", 0},
	{"resultcache.journal_mb", "MB", "lower", 0},
	{"resultcache.get_us_p50", "us", "lower", 0},
	{"resultcache.get_us_tail", "us", "lower", 0},
	{"resultcache.put_us_p50", "us", "lower", 0},
	{"resultcache.put_us_tail", "us", "lower", 0},
	{"resultcache.hit_ratio", "ratio", "higher", 0},
	{"resultcache.get_concurrency", "ratio", "higher", 0},
	{"resultcache.busy_share", "ratio", "lower", 0},
	{"resultcache.errors", "count", "lower", 0},
	{"sim.run_ms_p50", "ms", "lower", 0},
	{"sim.run_ms_tail", "ms", "lower", 0},
	{"sim.ns_per_block", "ns", "lower", 0},
	{"sim.blocks", "count", "lower", 0},
	{"sim.regular_ratio", "ratio", "higher", 0},
	{"sim.busy_share", "ratio", "lower", 0},
	{"sim.errors", "count", "lower", 0},
	{"sim.table_lookup_ns", "ns", "lower", 0},
	{"sim.table_compile_ms", "ms", "lower", 0},
	{"sim.loop_self_ns_per_block", "ns", "lower", 0},
	{"sim.ledger_explained_share", "ratio", "higher", 0},
	{"chain.extend_ns_per_block", "ns", "lower", 0},
	{"chain.settle_ns_per_block", "ns", "lower", 0},
	{"chain.tree_bytes_per_block", "B", "lower", 0},
	{"mining.sample_ns", "ns", "lower", 0},
	{"rng.uint64_ns", "ns", "lower", 0},
	{"rng.float64_ns", "ns", "lower", 0},
	{"rng.expunit_ns", "ns", "lower", 0},
	{"difficulty.observe_ns", "ns", "lower", 0},
	{"core.solve_ms_p50", "ms", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.replica_mismatches", "count", "lower", 0},
}

// unitOf returns the unit of a named metric.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: unknown metric " + name)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is one metric's human-readable line: the value plus what it was
// computed from.
type detail struct {
	name  string
	value float64
	note  string // e.g. "q1 5.41 q3 5.52 n=4" or "p99.8 of 6480"
}

// report collects a run's metrics with their details.
type report struct {
	res      result
	details  []detail
	notes    []string // remarks printed after the metrics
	failures []string // output checks that failed, printed before the result
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: make(map[string]metric)}}
}

// set records a metric under its declared unit.
func (r *report) set(name string, value float64, note string) {
	r.res.Metrics[name] = metric{Value: value, Unit: unitOf(name)}
	r.details = append(r.details, detail{name, value, note})
}
