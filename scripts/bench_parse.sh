#!/usr/bin/env bash
# DOM parse throughput gate: run the DOM-cache benchmarks — cold
# html.Extract passes against cache-served repeats over a Zipf-popular
# corpus — archive them as a BENCH_PARSE_*.json artifact, and fail
# unless the warm path beats the cold path by the required speedup AND
# stays under the warm allocation ceiling. The Zipf pair measures what
# the cache buys: a shared widget document fetched by many sites is
# extracted once and served from the content-addressed cache
# thereafter; the allocation ceiling pins the warm hit at a hash-key
# lookup (no allocation since memo.Sum hashes through a pooled buffer),
# not a re-extraction.
#
# Usage: scripts/bench_parse.sh [output.json]
#   PERMODYSSEY_PARSE_MIN_SPEEDUP      required cold/warm ratio (default 2.0)
#   PERMODYSSEY_PARSE_MAX_WARM_ALLOCS  warm allocs/op ceiling (default 3)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_PARSE_local.json}"
min_speedup="${PERMODYSSEY_PARSE_MIN_SPEEDUP:-2.0}"
max_allocs="${PERMODYSSEY_PARSE_MAX_WARM_ALLOCS:-3}"

txt="$(mktemp)"
trap 'rm -f "$txt"' EXIT
go test -run '^$' -bench 'BenchmarkParseHTML(Small|Large|Zipf)(Cold|Warm)$|BenchmarkExtract(Three|Single)Walk$' \
    -benchtime 1000x -benchmem -timeout 20m . \
    | tee "$txt" >&2
go run ./cmd/benchjson < "$txt" > "$out"
echo "bench artifact written to $out" >&2

cold="$(awk '$1 ~ /^BenchmarkParseHTMLZipfCold/ {print $3}' "$txt")"
warm="$(awk '$1 ~ /^BenchmarkParseHTMLZipfWarm/ {print $3}' "$txt")"
allocs="$(awk '$1 ~ /^BenchmarkParseHTMLZipfWarm/ {print $(NF-1)}' "$txt")"
if [ -z "$cold" ] || [ -z "$warm" ] || [ -z "$allocs" ]; then
    echo "bench_parse: missing benchmark results in output" >&2
    exit 1
fi
awk -v c="$cold" -v w="$warm" -v a="$allocs" -v m="$min_speedup" -v ma="$max_allocs" 'BEGIN {
    speedup = c / w
    printf "warm %.2fus/op vs cold %.2fus/op: %.2fx speedup (gate: >= %.1fx); warm allocs/op %d (gate: <= %d)\n",
        w / 1e3, c / 1e3, speedup, m, a, ma
    exit (speedup >= m && a <= ma) ? 0 : 1
}' >&2
