#!/usr/bin/env bash
# Crawl-benchmark smoke check: the benchmark runner is its own module
# (crawlbench/go.mod), so `go test ./...` at the repository root never
# builds or tests it. This runs the runner's own tests, then one short
# `offline` run, and fails unless the run's result line reports
# "correct":true — every record matched the synthetic web's ground
# truth and the bundle-regenerated report was byte-identical. It is a
# correctness check only: no timing is gated.
#
# Usage: scripts/crawlbench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

(cd crawlbench && go test ./...)

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
bash crawlbench/run.sh --workload offline --seed 1 --seconds 5 --trace 0 | tee "$out"
last="$(tail -n 1 "$out")"
case "$last" in
*'"correct":true'*) echo "crawlbench smoke: correct" >&2 ;;
*)
    echo "crawlbench smoke: result line does not report \"correct\":true" >&2
    exit 1
    ;;
esac
