#!/usr/bin/env bash
# Line counts of the Go sources: non-test lines outside the crawl
# benchmark module (crawlbench/) and its build directory (.bench_build/),
# test lines over the same files, and non-test lines of the four
# packages whose size the roadmap tracks.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# count FIND-ARGS...: total lines of the .go files find selects.
count() {
    find . \( -path ./crawlbench -o -path ./.bench_build \) -prune -o \
        -type f -name '*.go' "$@" -print0 | xargs -0 cat | wc -l
}

echo "non-test Go lines: $(count ! -name '*_test.go')"
echo "test Go lines: $(count -name '*_test.go')"
for pkg in internal/script internal/html internal/analysis internal/webapi; do
    echo "$pkg non-test lines: $(count -path "./$pkg/*" ! -name '*_test.go')"
done
