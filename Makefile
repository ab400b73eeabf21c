# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet lint lint-cover loc deadcode bench-frozen bench-compare test race race-full kill-soak sim-smoke fuzz-smoke bench-smoke cover cluster-cover tenancy-cover bench bench-pair tables tables-check svg csv examples clean

# The concurrency-heavy packages (distributed path + scheduler) always run
# under the race detector as part of `make test`; `race-full` covers the
# whole module. internal/sim is single-threaded by construction (the purity
# analyzer forbids goroutines there), but it rides along so any accidental
# concurrency shows up as a race, not just a determinism break.
# internal/simd rides along too: the SWAR lane-law property tests there are
# pure math, but running them under -race keeps the exhaustive truth tables
# honest if anyone parallelizes them later.
RACE_PKGS := ./internal/sched/... ./internal/master/... ./internal/slave/... ./internal/wire/... ./internal/httpapi/... ./internal/metrics/... ./internal/jobs/... ./internal/sim/... ./internal/simd/... ./internal/prefilter/... ./internal/cluster/...

all: build lint test

build:
	go build ./...

vet:
	go vet ./...

# covfloor prints the total statement coverage of cover profile $(1), as
# `go tool cover -func` computes it, and fails below the floor of $(2) percent.
covfloor = go tool cover -func=$(1) | awk -v min=$(2) '/^total:/ { pct = $$3; sub("%", "", pct); printf "coverage: %s%% of statements (floor %s%%)\n", pct, min; ok = (pct + 0 >= min) } END { exit !ok }'

# Run the repo's own static-analysis suite (see cmd/swcheck and DESIGN §7),
# three analyzers: scheduler and SWAR purity, enum-switch exhaustiveness
# and metric naming. CI runs this as its own job; locally it rides along
# in `make all`.
lint:
	go run ./cmd/swcheck ./...

# Coverage floor for the analyzer package itself: swcheck gates the whole
# tree, so its own tests must not rot.
lint-cover:
	go test -coverprofile=analysis.cover.out ./internal/analysis
	$(call covfloor,analysis.cover.out,80)

# Code size, the numbers ROADMAP aim 2 tracks: lines of non-test Go source
# outside bench/ and testdata/, then lines of assembly (`.s`). With
# BASE=<rev> set on the command line or in the environment (not
# bench-pair's default below), two more lines give both counts at <rev>,
# read from git: `make loc BASE=HEAD~1`.
LOC_FILTER = grep -v -e '_test\.go$$' -e '^bench/' -e '/testdata/'
loc:
	@git ls-files '*.go' | $(LOC_FILTER) | xargs cat | wc -l
	@echo "$$(git ls-files '*.s' | $(LOC_FILTER) | xargs -r cat | wc -l) assembly"
	@if [ "$(origin BASE)" != file ]; then \
		git rev-parse -q --verify '$(BASE)^{commit}' >/dev/null || { echo "loc: no commit $(BASE)" >&2; exit 1; }; \
		for ext in go s; do \
			n=$$(git ls-tree -r --name-only $(BASE) | grep "\.$$ext\$$" | $(LOC_FILTER) | sed 's|^|$(BASE):|' | xargs -r git show | wc -l) || exit 1; \
			if [ $$ext = go ]; then echo "$$n at $(BASE)"; else echo "$$n assembly at $(BASE)"; fi; \
		done; \
	fi

# Dead-code gate: every function declared outside tests must be linked by
# some binary (cmd/*, examples/*, bench/swload, built for amd64 and arm64),
# or be listed with its reason (oracle, seam or harness) in
# scripts/deadcode.allow. Fails on a stale allowlist entry too.
deadcode:
	bash scripts/deadcode.sh

# The benchmark-pinned surface (ROADMAP "Open items"): no PR but a benchmark
# PR edits bench/ or BENCHMARK.json, and the benchmark must still compile
# against the tree. Fails if anything under them differs from BASE.
bench-frozen:
	@changed=$$(git diff --name-only $(BASE) -- bench BENCHMARK.json); \
	if [ -n "$$changed" ]; then echo "bench-frozen: changed since $(BASE):" >&2; echo "$$changed" >&2; exit 1; fi
	go vet ./bench/...
	go build -o /dev/null ./bench/swload

# test runs vet plus the test suite; lint is deliberately NOT a
# prerequisite any more — CI runs it as a separate job so analyzer
# findings and test failures show up independently. `make all` still
# chains build + lint + test for the local one-shot.
test: vet
	go test ./...
	go test -race $(RACE_PKGS)

race:
	go test -race $(RACE_PKGS)

race-full:
	go test -race ./...

# The tests that kill replicas mid-search, and the slave-loop tests that
# cancel a task or a session mid-scan, each run 25 times under the race
# detector: whether a kill or a cancel lands before, during or after a scan
# is a matter of timing, so a test whose outcome depends on it fails here
# rather than once in a few hundred ordinary runs. Each name must still
# match a test.
KILL_SOAK := TestOneShardEngineMix TestClusterFailover TestReviveMidJobKeepsReplicaDead TestSearchesLeaveNoGoroutines TestReadyz \
	TestRunStopsWhenContextEnds TestRunSkipsTheAssignOnceDoneCloses TestRunSkipsPreCanceledTask \
	TestRunCancelsTheRunningTaskByAck TestRunTaskAbortsScanWhenMasterDies
KILL_SOAK_PKGS := ./internal/cluster ./internal/httpapi ./internal/slave
empty :=
space := $(empty) $(empty)
kill-soak:
	@for t in $(KILL_SOAK); do go test -list "^$$t\$$" $(KILL_SOAK_PKGS) | grep -qx "$$t" || { echo "$@: no test $$t in $(KILL_SOAK_PKGS)" >&2; exit 1; }; done
	go test -race -count=25 -run '^($(subst $(space),|,$(KILL_SOAK)))$$' $(KILL_SOAK_PKGS)

# Chaos-test the master/slave/jobs stack: 200 generated fault scenarios
# replayed under virtual time from pinned seeds (see cmd/swsim and
# DESIGN §10), plus the curated cluster-backend replica-crash story.
# Fails loudly with a shrunken reproducer on any invariant violation.
sim-smoke:
	go run ./cmd/swsim -seed 1 -scenarios 200 -duration 60s
	go run ./cmd/swsim -named shard-failover -seed 1 -scenarios 50

# Coverage floor for the multi-tenant control plane: the fair queue and
# quota book (internal/jobs) gate admission, so their tests must not rot.
tenancy-cover:
	go test -coverprofile=tenancy.cover.out ./internal/jobs
	$(call covfloor,tenancy.cover.out,78)

# Coverage floor for the cluster backend: the scatter-gather merge and
# failover paths gate serving correctness, so their tests must not rot.
cluster-cover:
	go test -coverprofile=cluster.cover.out ./internal/cluster
	$(call covfloor,cluster.cover.out,75)

# listed fails unless the regexp $(1) names a test, benchmark or fuzzer of
# package $(2). `go test -fuzz` and `-bench` pass silently when their
# pattern names nothing ("no fuzz tests to fuzz", exit 0), so a smoke line
# whose target was renamed away would still go green without it.
listed = go test -list '$(1)' $(2) | grep -qE '^(Test|Benchmark|Fuzz|Example)' || { echo "$@: no target in $(2) matches $(1)" >&2; exit 1; }

# fuzz runs the one fuzzer $(1) of package $(2) for 10 s, after checking
# that it exists.
fuzz = $(call listed,$(1),$(2)); go test -run='^$$' -fuzz='$(1)' -fuzztime=10s $(2)

# Short runs of the coverage-guided fuzzers over the two parsers that
# consume untrusted or crash-corrupted bytes (the wire codec and the jobs
# WAL replayer) plus the two differential fuzzers: the Farrar kernel one,
# which drives random sequences and gap schemes through the full
# AVX2/SWAR/emulated/scalar ladder and fails on any score divergence, the
# lane one, which packs random batches (refill boundaries, the length
# threshold, foreign bytes, lanes at the 8-bit ceiling) onto the
# inter-sequence lanes and requires the AVX2 kernel's harvest from the
# emulated oracle and every score from the scalar reference, and the
# seed-table one, which pits the prefilter's k-mer lookup table (k = 1..16,
# any byte values) against a naive multi-pattern scan, and the fair-queue
# one, which replays randomized push/pop/finish/remove interleavings
# against a shadow model of the per-tenant accounting, and the range-cut one, which checks that the cut
# behind shards and database-range tasks covers any database exactly once,
# and the prefilter range-cut one, which checks that the ranges of any cut
# emit exactly the whole database's candidate windows and counts, and the
# result-home one, which replays random submit/collect/cancel/restart
# sequences against a model of which retained record owes which body, and
# the whole-request one, which runs full-mode fleet searches (random
# database, queries, scheme, shards, replicas and top-k) through the
# dispatched kernels against a brute-force sw.Score ranking.
# Each target fuzzes for a fixed budget and fails if its fuzzer is gone;
# regressions land in testdata/fuzz and replay as ordinary tests forever
# after.
fuzz-smoke:
	$(call fuzz,FuzzWireDecode,./internal/wire)
	$(call fuzz,FuzzWALReplay,./internal/jobs)
	$(call fuzz,FuzzFairQueue,./internal/jobs)
	$(call fuzz,FuzzResultHome,./internal/jobs)
	$(call fuzz,FuzzFarrarVsScalar,./internal/farrar)
	$(call fuzz,FuzzLanesVsScalar,./internal/farrar)
	$(call fuzz,FuzzSeedTableVsNaive,./internal/prefilter)
	$(call fuzz,FuzzPrefilterRangeCut,./internal/prefilter)
	$(call fuzz,FuzzRangeCut,./internal/cluster)
	$(call fuzz,FuzzSearchVsBruteForce,./internal/cluster)

# Fast kernel health check: the Score8/Score16 microbenchmarks (AVX2 where
# the host has it, SWAR and emulated, so a vanished speedup is visible at a
# glance), one pass of the lanes-against-striped sweep behind laneMaxQuery
# (LanesByLen), ScoreDB (the kernel on the serving benchmark's planted
# queries and database, MCUPS and allocs per database sequence), the prefilter seed-table microbenchmark
# (residues/s over a 1-MiB stream at k = 4 and 5, and the cost of compiling
# a 200 aa query's Filter), plus the coverage floor over the kernel and
# prefilter packages only. Each benchmark line fails if its pattern names
# no benchmark. Cheap enough for every PR, unlike the full `bench` archive run.
bench-smoke:
	$(call listed,BenchmarkScore(8|16|DB),./internal/farrar)
	go test -bench='BenchmarkScore(8|16|DB)' -benchmem -run='^$$' ./internal/farrar
	$(call listed,BenchmarkLanesByLen,./internal/farrar)
	go test -bench='BenchmarkLanesByLen' -benchtime=1x -run='^$$' ./internal/farrar
	$(call listed,BenchmarkSeedScan,./internal/prefilter)
	go test -bench='BenchmarkSeedScan' -benchmem -run='^$$' ./internal/prefilter
	$(call listed,BenchmarkSwcheckRepo,./internal/analysis)
	go test -bench='BenchmarkSwcheckRepo' -benchtime=1x -run='^$$' ./internal/analysis
	go test -coverprofile=kernel.cover.out ./internal/farrar ./internal/simd/... ./internal/prefilter
	$(call covfloor,kernel.cover.out,75)

# Coverage with a ratcheted floor: the build fails when total statement
# coverage drops below it.
cover:
	go test -coverprofile=cover.out ./...
	$(call covfloor,cover.out,75)

# Run every benchmark with allocation stats and archive the run as
# BENCH_<date>.json (see EXPERIMENTS.md for the format); raw output
# stays visible on stderr.
bench:
	go test -bench=. -benchmem -run='^$$' ./... | go run ./cmd/benchjson

# Paired serving benchmark of revision BASE against the working tree: PAIRS
# alternating runs of one bench/run.sh workload on either side, then both
# medians, quartiles and the win count per end-to-end metric (see
# scripts/bench-pair.sh). A gain is claimed from PAIRS >= 10 only.
BASE ?= HEAD
WORKLOAD ?= single_query
SEED ?= 1
PAIRS ?= 10
bench-pair:
	bash scripts/bench-pair.sh $(BASE) $(WORKLOAD) $(SEED) $(PAIRS)

# Compare two swload result files (written by `bash bench/run.sh -all -out
# FILE`): prints every metric side by side and exits 1 when an end-to-end
# metric of NEW is worse than OLD's by more than its BENCHMARK.json bound.
bench-compare:
	bash bench/run.sh -compare $(OLD) $(NEW)

# Regenerate every table and figure of the paper (EXPERIMENTS.md data).
tables:
	go run ./cmd/benchtables

# The paper tables are a pure function of the code: two runs must print
# the same bytes. A difference means scheduling leaked into the
# discrete-event experiments (map order, goroutines, wall-clock time).
tables-check:
	@mkdir -p out
	go run ./cmd/benchtables > out/tables.1.txt
	go run ./cmd/benchtables > out/tables.2.txt
	cmp out/tables.1.txt out/tables.2.txt

svg:
	go run ./cmd/benchtables -svg out/svg

csv:
	go run ./cmd/benchtables -csv out/csv

examples:
	@for e in quickstart adjustment hybridsearch nondedicated distributed; do \
		echo "=== examples/$$e ==="; go run ./examples/$$e || exit 1; done

clean:
	rm -rf out
