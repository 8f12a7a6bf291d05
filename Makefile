# Development targets. `make check` is a gofmt check, tier-1 and the race
# suite in one command.

GO ?= go

# Baseline file consumed by bench-compare; create it with bench-baseline.
BENCH_BASELINE ?= bench-baseline.json

# Dated benchmark history appended to by bench-record (committed, so the
# repo carries its own performance trajectory).
BENCH_HISTORY ?= BENCH_HISTORY.json

# The workloads gated against a same-machine baseline: the K-pool races
# (2pools includes the deep-fork 0.33/0.33 race, which guards the
# O(log race depth) consensus-floor recompute),
# the tournament engine, the continuous-time workloads, the low-alpha run
# (alpha05: almost every honest event takes the plain loop's race-origin
# fast path), the result-cache cold/warm pair (cold bounds the cache's
# miss-path overhead; warm pins the fully cached sweep), the long-horizon
# workload (1m guards the O(window) memory claim through the bytes/op
# gate), and the unbounded-depth schedule (nodepth runs the widest
# reference window, where uncle eligibility costs most). bench-gate and
# the CI workflow both read this list, so the two cannot drift.
BENCH_GATE_FILTERS := 2pools tournament eip100 profitability alpha05 cache 1m nodepth

.PHONY: check fmt build vet test race agreement loc staticcheck chaos-smoke cache-smoke kill-smoke fuzz-smoke examples-smoke bench bench-json bench-baseline bench-compare bench-gate bench-record bench-smoke

# How long each fuzz target runs in fuzz-smoke; CI uses the default.
FUZZTIME ?= 10s

check: fmt vet staticcheck test race agreement

build:
	$(GO) build ./...

# Fails listing every tracked Go file that gofmt would rewrite.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt: needs formatting:"; echo "$$out"; exit 1; fi

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
# under the detector. The cancellation tests then repeat 200 times: a
# dispatch that slips past a done context fails only now and then.
race:
	$(GO) test -race -short ./internal/parallel ./internal/sim ./internal/experiments ./internal/resultcache ./internal/chaos
	$(GO) test -race -count=200 -run 'MapCtx' ./internal/parallel

# The statistical agreement suite by name: the paired/antithetic
# estimators against their closed-form oracles, and the RNG's
# distributional pins. Everything here also runs inside `test`; the
# explicit pass keeps the statistical gates visible (and runnable alone).
agreement:
	$(GO) test -run 'Antithetic|Precision|Paired|ExpUnit' \
		./internal/rng ./internal/stats ./internal/sim ./internal/experiments

# Go lines per package, non-test and test, outside the bench/ module and
# hidden directories: the net line counts a change reports per package.
loc:
	@printf '%-28s %8s %8s\n' package non-test test; \
	for d in $$(find . -name '*.go' -not -path './bench/*' -not -path './.*' | xargs -n1 dirname | sort -u); do \
		src=$$(find "$$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		tst=$$(find "$$d" -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-28s %8d %8d\n' "$${d#./}" "$$src" "$$tst"; \
	done | awk '{ print; s += $$2; t += $$3 } END { printf "%-28s %8d %8d\n", "total", s, t }'

# The chaos suite alone (adversarial strategies and injected worker
# panics/errors must all fail closed with typed errors and leave Runners
# reusable), plus one sampled-audit experiment end to end through the CLI.
chaos-smoke:
	$(GO) test -race ./internal/chaos
	$(GO) run ./cmd/ethselfish -quick -runs 1 -blocks 20000 -audit -audit-every 256 table2 >/dev/null

# The result cache end to end through the CLI: a cold run populates a disk
# journal, a warm rerun must serve at least one hit, some of them counted
# as disk hits (the rows the warm process read from the journal), and
# reproduce the figure bit for bit (invariant 3 makes hits exact, so cmp —
# not a fuzzy diff — is the right check). A command rejected for its
# arguments must fail before it creates its -cachedir. The partial-group
# case caches only the EIP100 rows of the profitability grid; the full
# sweep must serve them as hits while simulating the other rules' overlays
# on the shared race walks, and match a run without a cache.
cache-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/ethselfish" ./cmd/ethselfish; \
	"$$dir/ethselfish" -quick -cachedir "$$dir/cache" fig8 \
		> "$$dir/cold.out" 2> "$$dir/cold.err"; \
	"$$dir/ethselfish" -quick -cachedir "$$dir/cache" fig8 \
		> "$$dir/warm.out" 2> "$$dir/warm.err"; \
	cmp "$$dir/cold.out" "$$dir/warm.out"; \
	grep -Eq 'cache: [1-9][0-9]* hits' "$$dir/warm.err"; \
	grep -Eq '[1-9][0-9]* disk' "$$dir/warm.err"; \
	echo "cache-smoke: warm rerun bit-identical and served from cache"; \
	if "$$dir/ethselfish" -cachedir "$$dir/never" nosuchexp 2> /dev/null; then \
		echo "cache-smoke: unknown experiment accepted"; exit 1; fi; \
	test ! -e "$$dir/never"; \
	echo "cache-smoke: rejected command left no cache directory"; \
	"$$dir/ethselfish" -quick profitability > "$$dir/profit-clean.out"; \
	"$$dir/ethselfish" -quick -cachedir "$$dir/profit" -rule eip100 profitability \
		> /dev/null 2> "$$dir/profit-eip100.err"; \
	"$$dir/ethselfish" -quick -cachedir "$$dir/profit" profitability \
		> "$$dir/profit-partial.out" 2> "$$dir/profit-partial.err"; \
	cmp "$$dir/profit-clean.out" "$$dir/profit-partial.out"; \
	grep -Eq 'cache: [1-9][0-9]* hits' "$$dir/profit-partial.err"; \
	echo "cache-smoke: partially cached profitability grid bit-identical, cached rule served from cache"

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

# Every example program end to end; any non-zero exit fails the target.
# `build` only compiles them, and quickstart and stubborn run the library
# facade's Simulate, whose configuration a compile cannot check.
examples-smoke:
	@set -e; for d in examples/*/; do \
		echo "examples-smoke: $${d%/}"; \
		$(GO) run "./$${d%/}" > /dev/null; \
	done

# Short randomized passes over the block tree's ancestor queries against
# parent-walk oracles, the simulator's fuzz targets (the strategy gate, the
# random-legal-reaction property and the strategy-spec grammar), the
# result-cache journal's row encoder and row decoder against their
# encoding/json oracles, and the journal decoder; Go allows one -fuzz
# target per invocation, hence the separate runs.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzTreeAncestors -fuzztime=$(FUZZTIME) ./internal/chain
	$(GO) test -run=NONE -fuzz=FuzzValidateReaction -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzStrategySpec -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzDecisionTableCompile -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzRandomLegalStrategySimulation -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzCacheDecode -fuzztime=$(FUZZTIME) ./internal/resultcache
	$(GO) test -run=NONE -fuzz=FuzzAppendRow -fuzztime=$(FUZZTIME) ./internal/resultcache
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
# so only a real blow-up trips ethbench's >20% regression limit. Every
# filter runs even after one fails, so a failure cannot hide the filters
# after it; the target then lists the failed filters and exits 1. CI runs
# this as its final step.
bench-gate:
	@failed=; for f in $(BENCH_GATE_FILTERS); do \
		echo "bench-gate: $$f"; \
		if ! { $(GO) run ./cmd/ethbench -filter $$f > ci-bench-$$f.json && \
			$(GO) run ./cmd/ethbench -filter $$f -baseline ci-bench-$$f.json; }; then \
			failed="$$failed $$f"; \
		fi; \
	done; \
	if [ -n "$$failed" ]; then echo "bench-gate: failed:$$failed"; exit 1; fi; \
	echo "bench-gate: all filters passed"

# Append the current benchmark numbers as a dated entry to the committed
# history file (satisfying curiosity about the performance trajectory
# without digging through git history of baselines). -buildvcs=true stamps
# the git revision into the binary, which a plain `go run` leaves out, so
# the entry records the code it measured.
bench-record:
	$(GO) run -buildvcs=true ./cmd/ethbench -record $(BENCH_HISTORY)

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
