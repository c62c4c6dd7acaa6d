GO ?= go

.PHONY: build test test-procs test-bench race race-serve chaos-smoke bench bench-exec bench-store-smoke bench-pick bench-pick-smoke bench-cluster-smoke bench-ingest-smoke vet fmt-check lint verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 at one, two and the host's own processor count: what a test observes
# (which worker claims a partition before a deadline fires, which goroutine
# wins a single-flight) depends on GOMAXPROCS, and a contract that holds at
# one setting only is not a contract. -count=1 defeats the test cache, which
# does not key on GOMAXPROCS.
test-procs:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...
	$(GO) test -count=1 ./...

# The serving benchmark (bench/, BENCHMARK.json) is a module of its own that
# `go test ./...` here does not reach: compile it and run its unit tests and
# its test-size pass over every workload, answers verified. -count=1: the
# smoke run's verdict depends on timing (trace coverage), so a cached pass
# says nothing about this run.
test-bench:
	cd bench && $(GO) test -count=1 ./...

# Race pass over the parallel execution surface: the scan engine, every
# layer that fans out onto it, the concurrent serving layer, the one cache
# (internal/lru) under its compiled-query, pick and block memos, and the
# partition itself (internal/table), whose decode memo, first-touch flag and
# holder count concurrent scans of one cached block share. Like every test
# binary it runs with released block buffers poisoned (store.poison), so a
# view that outlives its holder fails an equivalence suite here.
race:
	$(GO) test -race -count=1 ./internal/table/ ./internal/exec/ ./internal/query/ ./internal/core/ ./internal/stats/ ./internal/picker/ ./internal/experiments/ ./internal/serve/ ./internal/store/ ./internal/ingest/ ./internal/lru/ ./cmd/ps3serve/

# Serving-layer race tests alone: N goroutines on one snapshot-restored
# system — resident and store-backed with a thrashing partition cache —
# must match the sequential baseline bit for bit.
race-serve:
	$(GO) test -race -count=1 -run 'TestConcurrentServingMatchesSequentialBaseline|TestConcurrentPagedServingMatchesResidentBaseline' ./internal/serve/

# Fault-injection chaos suite under the race detector: randomized transient
# disk faults under concurrent append+query load (no acknowledged row lost,
# no silently wrong answer, monotonic snapshot versions), plus the
# deterministic degraded modes — quarantined-partition serving, WAL-poison
# read-only flip, drain-time shedding, mid-scan deadlines — and the
# no-goroutine-leak contract after shutdown.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaos' -v ./internal/serve/

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Vectorized execution engine: selection-vector kernels vs the retained
# row-at-a-time reference evaluator, and the grouped weighted scan (flat
# partial answers vs one Answer map per partition, /paired, with allocs;
# encoded partitions on their first read against ones already decoded,
# /cold and /warm), and one conjunction written best- and worst-first
# (BenchmarkEvalPartition/conjunction: a scan learns the order, so the two
# agree), and the label-ordered rendering of a scan's total at 8, 512 and
# 2 048 groups (BenchmarkFinalizeGroups: label memo /cold and /warm, /paired
# against the maps-and-sort rendering the serving path used to take).
bench-exec:
	$(GO) test -bench 'BenchmarkEvalPartition|BenchmarkSelectivity|BenchmarkEstimateGrouped|BenchmarkFinalizeGroups' -benchmem -run '^$$' .

# One-iteration smoke of the store benchmarks plus the encoding acceptance
# contracts (raw/encoded bit-identity cold and warm, the no-decode counter
# proof, a column decoded on its second read and never by a thrashing
# reader, the frozen golden files, the block-load allocation ceilings: one
# buffer for a load nobody releases, none after a release, no per-column
# copies; a thrashing ad-hoc scan allocating less than a block in all; the
# one scratch pool serving every grouping shape, each query starting from its
# own conjunction order; a warm ordered answer allocating nothing per group;
# the conjunction-order and group-finalization layer benchmarks; and the kdd
# cache-budget claim: encoded at a third of the raw budget, equal-or-better
# hit rate);
# wired into CI so the benchmark fixtures, the encoded-kernel counters and
# the allocation-free load can never rot.
bench-store-smoke:
	$(GO) test -run 'TestEncodedVsRawQueryEquivalence|TestCatPredicateEvaluatesWithoutDecode|TestDecodeAdmittedOnSecondTouch|TestGoldenFiles|TestChooserHintConsistency|TestLoadBlockAllocatesTheBlockOnce|TestThrashingScanAllocatesNoBlockMemory|TestEncodedCacheBudgetClaim' -v ./internal/store/
	$(GO) test -run 'TestScratchSharedAcrossQueries|TestOrderedAllocsIndependentOfGroups' -v ./internal/query/
	$(GO) test -bench 'BenchmarkStore|BenchmarkLoadBlock' -benchtime 1x -run '^$$' ./internal/store/
	$(GO) test -bench 'BenchmarkEvalPartition/conjunction|BenchmarkFinalizeGroups' -benchtime 1x -run '^$$' .

# Pick-time inference: the batched pick path (pooled selectivity fill +
# fold-table funnel) vs the retained pointer-tree reference, across serving
# budgets, plus the flat predictor micro-benchmarks and one funnel stage at
# the serving benchmark's shape (BenchmarkFunnelStage: the per-binding table
# build, the per-query bind + sweep, and /paired against the unspecialized
# PredictBatch sweep over full rows). The zero-alloc contract of the steady
# path is asserted by tests (TestPredictBatchZeroAllocs,
# TestFillRowZeroAllocs, TestBatchScorerZeroAllocsAfterBind), not just
# observed in -benchmem.
# Nothing is recorded from this target: the recorded pick figure is the
# served adhoc-pick workload of the serving benchmark (bench/).
bench-pick:
	$(GO) test -bench 'BenchmarkPick|BenchmarkPickInference' -benchmem -run '^$$' ./internal/picker/
	$(GO) test -bench 'BenchmarkPredictBatch|BenchmarkFunnelStage' -benchmem -run '^$$' ./internal/gbt/

# One-iteration smoke run of the pick benchmarks plus the zero-alloc tests;
# wired into CI so the benchmark fixtures can never rot. Two separate
# invocations so a failure in either exits nonzero (no output filtering).
bench-pick-smoke:
	$(GO) test -run 'ZeroAllocs' -v ./internal/picker/ ./internal/gbt/ ./internal/stats/
	$(GO) test -bench 'BenchmarkPick|BenchmarkPredictBatch|BenchmarkFunnelStage' -benchtime 1x -run '^$$' ./internal/picker/ ./internal/gbt/

# One-iteration smoke of the clustering benchmarks plus the skip-fraction
# and equivalence contracts; wired into CI next to bench-pick-smoke so the
# bounded k-means fixtures and counters can never rot.
bench-cluster-smoke:
	$(GO) test -run 'TestKMeansBounded|TestPickBatchKMeansSkipsDistances' -v ./internal/cluster/ ./internal/picker/
	$(GO) test -bench 'BenchmarkKMeans' -benchtime 1x -run '^$$' ./internal/cluster/

# One-iteration smoke of the ingest benchmarks plus the offline-equivalence
# and crash-recovery contracts; wired into CI so the live-ingest fixtures
# (WAL framing, flush protocol, snapshot swap) can never rot.
bench-ingest-smoke:
	$(GO) test -run 'TestOfflineEquivalence|TestCrashRecovery|TestRecoveryResumesAppends|TestServeSwapUnderAppendTraffic' -v ./internal/ingest/ ./internal/serve/
	$(GO) test -bench 'BenchmarkIngest' -benchtime 1x -run '^$$' ./internal/ingest/

vet: fmt-check
	$(GO) vet ./...

# Custom invariant linters (internal/analyzers, driven by cmd/ps3lint):
# mapiter (determinism), decodebypass (lazy-decode seam), scratchescape
# (pooled scratch ownership), releasesite (who may release a loaded
# partition, and nothing reads it afterwards), panicfree (untrusted decode),
# nakedgo (concurrency choke point), ctxflow (deadline propagation) over the
# whole module, test files included where the invariant binds them.
# Exits nonzero on any finding not suppressed by a justified
# //lint:<name>-ok directive.
lint:
	$(GO) run ./cmd/ps3lint ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

verify: build vet lint test
