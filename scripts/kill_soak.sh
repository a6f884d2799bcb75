#!/usr/bin/env bash
# Kill-injection soak for one crawler process: a chaos crawl writing a
# -cache-dir archive is SIGKILLed once about 25% and once about 60% of
# the way through its checkpoint, and rerun with -resume after each
# kill. Each rerun must steal the dead process's manifest lock and
# resume (not re-crawl) the completed prefix: its logged resume count
# and the final -stats-json accounting (visited + resumed = the
# population) prove it. The finished dataset's report must be
# byte-identical to an uninterrupted crawl of the same seed, and the
# archive, after its crash fsck, must replay the whole population
# offline with zero network fetches. CI runs this as the kill-soak job;
# `make kill-soak` runs it locally.
#
# The crawl flags pin the deterministic chaos contract: every
# timing-raced fault (slow-loris) off, -retries 0, -breaker-threshold
# 0, so record contents cannot depend on where the kills landed.
set -euo pipefail
cd "$(dirname "$0")/.."

SITES="${PERMODYSSEY_KILL_SITES:-800}"
# PERMODYSSEY_KILL_WORK pins the workdir (CI uploads it as a failure
# artifact); unset, a temp dir is used and cleaned up.
if [ -n "${PERMODYSSEY_KILL_WORK:-}" ]; then
    work="$PERMODYSSEY_KILL_WORK"
    mkdir -p "$work"
else
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi

go build -o "$work/permcrawl" ./cmd/permcrawl
go build -o "$work/permreport" ./cmd/permreport

crawl_flags=(-sites "$SITES" -seed 13 -workers 16 -timeout 2s -retries 0
    -breaker-threshold 0 -chaos
    -chaos-faults reset,malformed-header,oversized-header,redirect-loop,flap,oversized-body)
out="$work/crawl.jsonl"
archive="$work/archive"
lock="$archive/manifest.jsonl.lock"
log="$work/crawl.log"

echo "== uninterrupted baseline ($SITES sites) =="
"$work/permcrawl" "${crawl_flags[@]}" -out "$work/baseline.jsonl"

# die MSG: show the interrupted runs' log, then fail with MSG.
die() {
    sed 's/^/   | /' "$log" >&2
    echo "kill soak: $*" >&2
    exit 1
}

# kill_at THRESHOLD [FLAGS...]: run permcrawl over the archive in the
# background, SIGKILL it once its checkpoint holds THRESHOLD complete
# lines, check it left its manifest lock behind, and set killed to the
# number of complete lines the dead process left.
kill_at() {
    local threshold=$1 c=0 deadline=$((SECONDS + 60))
    shift
    "$work/permcrawl" "${crawl_flags[@]}" -cache-dir "$archive" -out "$out" "$@" >>"$log" 2>&1 &
    local pid=$!
    while :; do
        [ -f "$out" ] && c=$(wc -l <"$out")
        [ "$c" -ge "$threshold" ] && break
        kill -0 "$pid" 2>/dev/null || die "permcrawl exited at $c of $threshold checkpointed records"
        if [ "$SECONDS" -ge "$deadline" ]; then
            kill -KILL "$pid" 2>/dev/null || true
            die "$out stuck at $c/$threshold lines"
        fi
        sleep 0.05
    done
    kill -KILL "$pid" 2>/dev/null || die "permcrawl finished before it could be killed"
    wait "$pid" 2>/dev/null || true
    [ "$(cat "$lock" 2>/dev/null)" = "$pid" ] || die "the killed permcrawl (pid $pid) left no manifest lock"
    killed=$(wc -l <"$out")
    echo "   SIGKILLed pid $pid at $killed checkpointed records"
}

# check_resumed RUN KILLED: the RUN-th "resuming: N records" line of the
# log must carry N >= KILLED - 1. A SIGKILL can tear at most the final
# in-flight line, so a resumed count below that means completed ranks
# were re-crawled.
check_resumed() {
    local resumed
    resumed=$(sed -n 's/^resuming: \([0-9]*\) records.*/\1/p' "$log" | sed -n "${1}p")
    if [ -z "$resumed" ] || [ "$resumed" -lt $(($2 - 1)) ]; then
        die "rerun $1 resumed ${resumed:-0} records, want >= $(($2 - 1)) (killed at $2)"
    fi
    echo "   rerun $1 stole the lock and resumed $resumed of $2 checkpointed records"
}

: >"$log"
echo "== crawl with -cache-dir, SIGKILLed at ~25% =="
kill_at $((SITES / 4))
first=$killed
echo "== -resume, SIGKILLed at ~60% =="
kill_at $((SITES * 6 / 10)) -resume
check_resumed 1 "$first"
echo "== -resume to the end =="
"$work/permcrawl" "${crawl_flags[@]}" -cache-dir "$archive" -out "$out" -resume \
    -stats-json "$work/stats.json" >>"$log" 2>&1 || die "the final -resume run failed"
check_resumed 2 "$killed"
sed 's/^/   | /' "$log"

# The final run's stats account for every rank exactly once: ranks
# crawled live + ranks resumed from the checkpoint = the population.
counter() { sed -n "s/^    \"$1\": \([0-9]*\),*\$/\1/p" "$work/stats.json"; }
visited=$(counter Visited) resumed=$(counter Resumed)
if [ -z "$visited" ] || [ -z "$resumed" ] || [ $((visited + resumed)) -ne "$SITES" ]; then
    echo "kill soak: visited ${visited:-?} + resumed ${resumed:-?} != $SITES sites — ranks re-crawled or lost" >&2
    exit 1
fi
echo "   accounting: $visited crawled live + $resumed resumed = $SITES"

"$work/permreport" -in "$work/baseline.jsonl" -json >"$work/baseline-report.json"
"$work/permreport" -in "$out" -json >"$work/report.json"
if ! diff -u "$work/baseline-report.json" "$work/report.json"; then
    echo "kill soak: report after two kills and resumes diverges from the uninterrupted crawl" >&2
    exit 1
fi

# The archive outlived two SIGKILLed writers and must still replay the
# whole population offline after its fsck.
"$work/permcrawl" "${crawl_flags[@]}" -cache-dir "$archive" -offline \
    -out "$work/replay.jsonl" -stats-json "$work/replay-stats.json"
"$work/permreport" -in "$work/replay.jsonl" -json >"$work/replay-report.json"
if ! diff -u "$work/baseline-report.json" "$work/replay-report.json"; then
    echo "kill soak: offline replay from the kill-survived archive diverges" >&2
    exit 1
fi
if ! grep -q '"network_fetches": 0' "$work/replay-stats.json"; then
    echo "kill soak: offline replay reached the network" >&2
    exit 1
fi

echo "kill soak: permcrawl SIGKILLed twice and resumed; report byte-identical, archive replayable"
