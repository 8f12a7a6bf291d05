#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload fig8-paper --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The build cache, the binary and
# every file a run writes land under .bench_build/ in that directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
