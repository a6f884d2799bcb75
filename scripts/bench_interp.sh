#!/usr/bin/env bash
# Interpreter throughput artifact: run the compiled-execution
# benchmarks (a short probe, a loop-heavy function, a consent widget)
# and archive them as a BENCH_INTERP_*.json artifact. CI compares the
# artifact against its cached baseline with scripts/benchcmp.sh.
#
# Usage: scripts/bench_interp.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_INTERP_local.json}"

txt="$(mktemp)"
trap 'rm -f "$txt"' EXIT
go test -run '^$' -bench 'BenchmarkInterpret(Small|Loop|Widget)Compiled$' \
    -benchtime 300x -timeout 20m . \
    | tee "$txt" >&2
go run ./cmd/benchjson < "$txt" > "$out"
echo "bench artifact written to $out" >&2
