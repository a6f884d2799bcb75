#!/usr/bin/env bash
# Fuzz smoke: run every fuzz target of the script engine, the HTML
# parser, the policy parsers, the structured-field dictionary parser,
# the archive manifest reader, the bundle verifier and the dataset
# reader with the report it feeds for 10 s each. A panic, hang or broken
# property fails the run and leaves the failing input under the
# package's testdata/fuzz/ directory, where
# `go test -run <Target>/<input>` replays it. Each new input is
# minimized for at most 100 runs: Go's minimizer also tries cutting
# every pair of byte ranges, so on a dataset record of a few KB it
# would spend the whole 10 s minimizing instead of fuzzing.
#
# Usage: scripts/fuzz_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for pkg in ./internal/script ./internal/html ./internal/policy ./internal/header ./internal/diskcache ./internal/bundle ./internal/analysis; do
    for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz'); do
        echo "fuzz-smoke: $pkg $target" >&2
        go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s -fuzzminimizetime 100x "$pkg"
    done
done
