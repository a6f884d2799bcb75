#!/usr/bin/env bash
# Crawl-benchmark smoke check: the benchmark runner is its own module
# (crawlbench/go.mod), so `go test ./...` at the repository root never
# builds or tests it. This runs the runner's own tests, then one short
# run of each gated workload — `offline`, then `chaos` — and fails
# unless each run's result line reports "correct":true: every record
# matched the synthetic web's ground truth and the bundle-regenerated
# report was byte-identical. `chaos` is the only workload whose HTTP
# fetch path and failure taxonomy are checked against that ground
# truth. It is a correctness check only: no timing is gated.
#
# Usage: scripts/crawlbench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

(cd crawlbench && go test ./...)

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
for workload in offline chaos; do
    bash crawlbench/run.sh --workload "$workload" --seed 1 --seconds 5 --trace 0 | tee "$out"
    last="$(tail -n 1 "$out")"
    case "$last" in
    *'"correct":true'*) echo "crawlbench smoke: $workload correct" >&2 ;;
    *)
        echo "crawlbench smoke: $workload result line does not report \"correct\":true" >&2
        exit 1
        ;;
    esac
done
