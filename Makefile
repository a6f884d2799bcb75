# Developer entry points. `make ci` is the local equivalent of the
# GitHub Actions tier-1 gate; `make bench` produces a BENCH_*.json
# perf artifact.

.PHONY: ci test bench bench-sched bench-interp bench-parse benchcmp soak fuzz-smoke replay bundle-replay kill-soak crawlbench-smoke fmt build loc

ci:
	./scripts/ci.sh

# Offline-replay gate: warm crawl with -cache-dir, offline re-crawl,
# identical reports, zero network fetches.
replay:
	./scripts/replay.sh

# Bundle-replay gate: chaos crawl sealed into a Web Execution Bundle;
# permreport -from-bundle must reproduce the crawl-time report
# byte-identically at >= 10x the crawl's speed, tampering must be
# refused, and -diff-bundles over an era pair must be deterministic.
bundle-replay:
	./scripts/bundle_replay.sh

# Kill-injection soak: SIGKILL a chaos crawl twice mid-crawl and
# finish it with -resume; the report must stay byte-identical to an
# uninterrupted run and the archive must replay offline.
kill-soak:
	./scripts/kill_soak.sh

test:
	go test ./...

# Crawl-benchmark smoke: the crawlbench module's own tests plus a 5 s
# offline run and a 5 s chaos run that must each report "correct":true
# (no timing gate).
crawlbench-smoke:
	./scripts/crawlbench_smoke.sh

bench:
	./scripts/bench.sh

# Scheduler benchmark: retry-heavy chaos crawl through the crawl queue,
# written as a BENCH_SCHED_*.json artifact for benchcmp.
bench-sched:
	./scripts/bench_sched.sh

# Interpreter benchmarks: compiled script execution on three workloads,
# written as a BENCH_INTERP_*.json artifact for benchcmp.
bench-interp:
	./scripts/bench_interp.sh

# DOM extraction benchmarks: cold html.Extract over small, large and
# Zipf corpora plus the one-pass vs three-walk pair, written as a
# BENCH_PARSE_*.json artifact for benchcmp.
bench-parse:
	./scripts/bench_parse.sh

# make benchcmp BASE=BENCH_old.json CUR=BENCH_local.json
benchcmp:
	./scripts/benchcmp.sh $(BASE) $(CUR)

soak:
	go test -race -v -timeout 20m -run 'TestChaos' ./internal/core/

# Fuzz smoke: every script, html, policy, header, diskcache, bundle and
# analysis fuzz target for 10 s each.
fuzz-smoke:
	./scripts/fuzz_smoke.sh

fmt:
	gofmt -w .

build:
	go build ./...

# Go line counts: non-test lines outside crawlbench/, test lines, and
# non-test lines of internal/script, internal/html, internal/analysis
# and internal/webapi.
loc:
	./scripts/loc.sh
