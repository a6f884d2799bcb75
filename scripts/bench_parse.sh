#!/usr/bin/env bash
# DOM extraction throughput artifact: run the html.Extract benchmarks —
# cold extractions of small, large and Zipf-popular corpora, and the
# one tokenizer pass against Parse plus three tree walks — and archive
# them as a BENCH_PARSE_*.json artifact. CI compares the artifact
# against its cached baseline with scripts/benchcmp.sh.
#
# Usage: scripts/bench_parse.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_PARSE_local.json}"

txt="$(mktemp)"
trap 'rm -f "$txt"' EXIT
go test -run '^$' -bench 'BenchmarkParseHTML(Small|Large|Zipf)Cold$|BenchmarkExtract(Three|Single)Walk$' \
    -benchtime 1000x -benchmem -timeout 20m . \
    | tee "$txt" >&2
go run ./cmd/benchjson < "$txt" > "$out"
echo "bench artifact written to $out" >&2
