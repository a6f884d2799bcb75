#!/usr/bin/env bash
# Tier-1 gate: formatting, vet, build, and the full test suite under the
# race detector. CI runs this verbatim; `make ci` runs it locally.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...

# Static analysis beyond vet. Local runs use an installed staticcheck
# if present; CI (network available) fetches the pinned version; a dev
# box with neither skips with a notice rather than failing offline.
# PERMODYSSEY_SKIP_STATICCHECK=1 opts out (the CI test job sets it —
# the dedicated staticcheck job owns the check there).
if [ "${PERMODYSSEY_SKIP_STATICCHECK:-}" = "1" ]; then
    :
elif command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
elif [ "${CI:-}" = "true" ]; then
    go run honnef.co/go/tools/cmd/staticcheck@2024.1.1 ./...
else
    echo "ci.sh: staticcheck not installed; skipping (CI runs the pinned version)" >&2
fi

go test -race ./...

# The memo is the one cache every crawl worker shares; repeat its tests
# under the race detector so rare build/eviction interleavings show up.
go test -race -count=10 ./internal/memo
# The crawl queue is the second structure every worker shares.
go test -race -count=5 ./internal/crawler
# The archive's pack writer is the third: every worker's Store appends
# to one pack, and a Load may forget a location a Store just made.
go test -race -count=5 ./internal/diskcache
