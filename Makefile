# Development targets. `make check` is tier-1 plus the race suite in one
# command.

GO ?= go

# Baseline file consumed by bench-compare; create it with bench-baseline.
BENCH_BASELINE ?= bench-baseline.json

# Dated benchmark history appended to by bench-record (committed, so the
# repo carries its own performance trajectory).
BENCH_HISTORY ?= BENCH_HISTORY.json

# The workloads gated against a same-machine baseline: the K-pool races,
# the tournament engine, the continuous-time workloads, the fast-forward
# speedup pair, the result-cache cold/warm pair (cold bounds the cache's
# miss-path overhead; warm pins the fully cached sweep), the long-horizon
# workload (1m guards the O(window) memory claim through the bytes/op
# gate), and the unbounded-depth schedule (nodepth runs the widest
# reference window, where uncle eligibility costs most). bench-gate and
# the CI workflow both read this list, so the two cannot drift.
BENCH_GATE_FILTERS := 2pools tournament eip100 profitability alpha05 fastforward cache 1m nodepth

.PHONY: check build vet test race agreement staticcheck chaos-smoke cache-smoke kill-smoke fuzz-smoke bench bench-json bench-baseline bench-compare bench-gate bench-record bench-smoke

# How long each fuzz target runs in fuzz-smoke; CI uses the default.
FUZZTIME ?= 10s

check: vet staticcheck test race agreement

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skipped with a notice when the binary is not
# on PATH (the tool is not vendored; CI installs it), so `make check` works
# on a bare toolchain.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test: build
	$(GO) test ./...

# The parallel engine's determinism tests double as its data-race check,
# and its cancellation tests verify prompt return, deterministic partial
# results, and no goroutine leaks under the detector. -short skips the full
# best-response grid search, which the plain test target already covers;
# everything else (including the tournament's parallel-vs-sequential check
# over parametric strategies and the chaos fault-injection suite) runs
# under the detector.
race:
	$(GO) test -race -short ./internal/parallel ./internal/sim ./internal/experiments ./internal/resultcache ./internal/chaos

# The cross-mode agreement suite by name: fast-forward vs plain
# distribution agreement, the paired/antithetic estimators against their
# closed-form oracles, and the RNG's distributional pins. Everything here
# also runs inside `test`; the explicit pass keeps the statistical gates
# visible (and runnable alone) when modes diverge.
agreement:
	$(GO) test -run 'FastForward|Antithetic|Precision|Paired|Geometric|GammaInt|ExpUnit' \
		./internal/rng ./internal/stats ./internal/sim ./internal/experiments

# The chaos suite alone (adversarial strategies and injected worker
# panics/errors must all fail closed with typed errors and leave Runners
# reusable), plus one sampled-audit experiment end to end through the CLI.
chaos-smoke:
	$(GO) test -race ./internal/chaos
	$(GO) run ./cmd/ethselfish -quick -runs 1 -blocks 20000 -audit -audit-every 256 table2 >/dev/null

# The result cache end to end through the CLI: a cold run populates a disk
# journal, a warm rerun must serve at least one hit and reproduce the
# figure bit for bit (invariant 3 makes hits exact, so cmp — not a fuzzy
# diff — is the right check).
cache-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/ethselfish -quick -cachedir "$$dir/cache" fig8 \
		> "$$dir/cold.out" 2> "$$dir/cold.err"; \
	$(GO) run ./cmd/ethselfish -quick -cachedir "$$dir/cache" fig8 \
		> "$$dir/warm.out" 2> "$$dir/warm.err"; \
	cmp "$$dir/cold.out" "$$dir/warm.out"; \
	grep -Eq 'cache: [1-9][0-9]* hits' "$$dir/warm.err"; \
	echo "cache-smoke: warm rerun bit-identical and served from cache"

# Crash safety end to end: SIGKILL a cached sweep after a random delay
# (somewhere between its first and last row), rerun it to completion over
# the same cache directory, and cmp the output against a clean run without
# a cache. Resuming is just rerunning; a final line torn by the kill is
# trimmed with a warning on stderr, never left for a human to repair. The
# binary is built first because a SIGKILL sent to `go run` kills only the
# go tool and leaves the sweep running.
kill-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/ethselfish" ./cmd/ethselfish; \
	start=$$(date +%s%N); \
	"$$dir/ethselfish" -quick fig8 > "$$dir/clean.out"; \
	clean_ms=$$(( ($$(date +%s%N) - start) / 1000000 )); \
	delay=$$(awk -v ms=$$clean_ms 'BEGIN { srand(); printf "%.3f", rand() * ms / 1000 }'); \
	"$$dir/ethselfish" -quick -cachedir "$$dir/cache" fig8 > /dev/null 2>&1 & pid=$$!; \
	sleep $$delay; kill -9 $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true; \
	lines=$$(cat "$$dir/cache/results.jsonl" 2>/dev/null | wc -l); \
	"$$dir/ethselfish" -quick -cachedir "$$dir/cache" fig8 \
		> "$$dir/resumed.out" 2> "$$dir/resumed.err"; \
	cat "$$dir/resumed.err"; \
	cmp "$$dir/clean.out" "$$dir/resumed.out"; \
	echo "kill-smoke: killed after $${delay}s of a $${clean_ms}ms sweep ($$lines journal lines); resumed output bit-identical"

# Short randomized passes over the simulator's fuzz targets (the strategy
# gate, the random-legal-reaction property and the strategy-spec grammar),
# the result-cache journal decoder, and its row decoder against the
# encoding/json oracle; Go allows one -fuzz target per invocation, hence
# the separate runs.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzValidateReaction -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzStrategySpec -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzDecisionTableCompile -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzRandomLegalStrategySimulation -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzCacheDecode -fuzztime=$(FUZZTIME) ./internal/resultcache
	$(GO) test -run=NONE -fuzz=FuzzJournalRow -fuzztime=$(FUZZTIME) ./internal/resultcache

# Every ethbench workload as a sub-benchmark of BenchmarkWorkloads, under
# go test's own timing and flags.
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./cmd/ethbench

# Machine-readable benchmark results (the BENCH_*.json trajectory).
bench-json:
	$(GO) run ./cmd/ethbench

# Record the current benchmark numbers as the comparison baseline.
bench-baseline:
	$(GO) run ./cmd/ethbench > $(BENCH_BASELINE)

# Compare against the recorded baseline; exits non-zero on a >20%
# regression in ns/op, bytes/op, or allocs/op of any shared benchmark.
bench-compare:
	$(GO) run ./cmd/ethbench -baseline $(BENCH_BASELINE)

# Record-and-compare each gated workload back to back on the same machine,
# so only a real blow-up trips ethbench's >20% regression limit. CI runs
# this as its final step.
bench-gate:
	@set -e; for f in $(BENCH_GATE_FILTERS); do \
		echo "bench-gate: $$f"; \
		$(GO) run ./cmd/ethbench -filter $$f > ci-bench-$$f.json; \
		$(GO) run ./cmd/ethbench -filter $$f -baseline ci-bench-$$f.json; \
	done

# Append the current benchmark numbers as a dated entry to the committed
# history file (satisfying curiosity about the performance trajectory
# without digging through git history of baselines).
bench-record:
	$(GO) run ./cmd/ethbench -record $(BENCH_HISTORY)

# Where bench-smoke leaves its CPU/heap profiles (uploaded as CI
# artifacts, so a slow CI run can be diagnosed without reproducing it).
BENCH_PROFILE_DIR ?= bench-profiles

# One-iteration pass over every benchmark so bench code cannot rot; used by
# CI, where full benchmark timings would be noise anyway. The profile
# passes cover the ethbench workloads: all of them, then the 1M-block
# long-horizon workload alone for its heap profile.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	mkdir -p $(BENCH_PROFILE_DIR)
	$(GO) test -run=NONE -bench=. -benchtime=1x \
		-cpuprofile=$(BENCH_PROFILE_DIR)/cpu.pprof \
		-memprofile=$(BENCH_PROFILE_DIR)/mem.pprof \
		-o $(BENCH_PROFILE_DIR)/bench.test ./cmd/ethbench
	$(GO) test -run=NONE -bench='Workloads/^sim-1m-blocks$$' -benchtime=1x \
		-memprofile=$(BENCH_PROFILE_DIR)/longhorizon-heap.pprof \
		-o $(BENCH_PROFILE_DIR)/longhorizon.test ./cmd/ethbench
