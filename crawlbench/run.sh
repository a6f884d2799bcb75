#!/usr/bin/env bash
# Builds the crawl benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash crawlbench/run.sh --workload live --seed 1 --seconds 20 --trace 0
# Every build and run artifact stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the binary.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd crawlbench && go build -o "$build/crawlbench" .) >&2
exec "$build/crawlbench" "$@"
