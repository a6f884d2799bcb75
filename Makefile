# Developer entry points. `make ci` is the local equivalent of the
# GitHub Actions tier-1 gate; `make bench` produces a BENCH_*.json
# perf artifact.

.PHONY: ci test bench bench-sched bench-interp bench-parse benchcmp soak replay bundle-replay fleet-soak kill-soak crawlbench-smoke fmt build

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

# Fleet-soak gate: 4-process sharded chaos crawl over one shared
# archive, merged, byte-identical to a single-process run.
fleet-soak:
	./scripts/fleet_soak.sh

# Kill-injection soak: SIGKILL 2 of 4 fleet workers mid-crawl; the
# supervisor must recover them with -resume and the merged report must
# stay byte-identical to a single-process run.
kill-soak:
	./scripts/kill_soak.sh

test:
	go test ./...

# Crawl-benchmark smoke: the crawlbench module's own tests plus a 5 s
# offline run that must report "correct":true (no timing gate).
crawlbench-smoke:
	./scripts/crawlbench_smoke.sh

bench:
	./scripts/bench.sh

# Scheduler throughput gate: chaos crawl, blocking baseline vs the
# host-aware scheduler; fails below a 25% wall-clock win.
bench-sched:
	./scripts/bench_sched.sh

# Interpreter throughput gate: tree-walk vs compile-once script
# execution; fails unless the compiled path is >= 2x on the loop
# workload.
bench-interp:
	./scripts/bench_interp.sh

# DOM parse throughput gate: cold arena parses vs cache-served repeats
# over a Zipf corpus; fails unless warm is >= 2x cold and a warm hit
# stays under the allocation ceiling.
bench-parse:
	./scripts/bench_parse.sh

# make benchcmp BASE=BENCH_old.json CUR=BENCH_local.json
benchcmp:
	./scripts/benchcmp.sh $(BASE) $(CUR)

soak:
	go test -race -v -timeout 20m -run 'TestChaos' ./internal/core/

fmt:
	gofmt -w .

build:
	go build ./...
