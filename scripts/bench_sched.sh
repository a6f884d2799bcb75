#!/usr/bin/env bash
# Scheduler throughput artifact: run the chaos crawl benchmark — a
# retry-heavy fault mix through the crawl queue — and archive
# it as a BENCH_SCHED_*.json artifact. CI compares the artifact against
# its cached baseline with scripts/benchcmp.sh.
#
# Usage: scripts/bench_sched.sh [output.json]
#   PERMODYSSEY_BENCH_CHAOS_SITES  chaos population size (default 300)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_SCHED_local.json}"
export PERMODYSSEY_BENCH_CHAOS_SITES="${PERMODYSSEY_BENCH_CHAOS_SITES:-300}"

txt="$(mktemp)"
trap 'rm -f "$txt"' EXIT
go test -run '^$' -bench 'BenchmarkCrawlChaosScheduler$' -benchtime 3x -timeout 30m . \
    | tee "$txt" >&2
go run ./cmd/benchjson < "$txt" > "$out"
echo "bench artifact written to $out" >&2
