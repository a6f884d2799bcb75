#!/usr/bin/env bash
# Benchmark smoke run: every benchmark once (-benchtime 1x) on a reduced
# site count, converted to a BENCH_*.json artifact so the performance
# trajectory accumulates run over run.
#
# Usage: scripts/bench.sh [output.json]
# Scale knobs (defaults are smoke-sized; unset them in-code defaults are
# 1500 shared-dataset sites and the full 20k-site crawl benchmark):
#   PERMODYSSEY_BENCH_SITES        shared analysis dataset size
#   PERMODYSSEY_BENCH_CRAWL_SITES  BenchmarkCrawl{Cached,Uncached} size
#   PERMODYSSEY_BENCH_CHAOS_SITES  BenchmarkCrawlChaosScheduler size
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_local.json}"
export PERMODYSSEY_BENCH_SITES="${PERMODYSSEY_BENCH_SITES:-300}"
export PERMODYSSEY_BENCH_CRAWL_SITES="${PERMODYSSEY_BENCH_CRAWL_SITES:-600}"
export PERMODYSSEY_BENCH_CHAOS_SITES="${PERMODYSSEY_BENCH_CHAOS_SITES:-150}"

go test -run '^$' -bench . -benchtime 1x -timeout 30m . \
    | tee /dev/stderr \
    | go run ./cmd/benchjson > "$out"
echo "bench artifact written to $out" >&2
