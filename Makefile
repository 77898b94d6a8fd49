GO ?= go

.PHONY: ci build test vet race short fuzz fuzz-smoke bench bench-train bench-score bench-serve bench-sim bench-vet serve-smoke train-smoke score-smoke sim-smoke score-diff fmt deps-lint serve-chaos crash-chaos obs-smoke loadgen-smoke metrics-lint

# ci is the full gate: formatting and static analysis, a check that every
# internal package is reached by a binary, an example, the root package
# or the bench module (deps-lint), a clean build of every package and the
# test suite under the race detector, plus a smoke pass over the
# training-path differential tests, a one-iteration spin of
# the training benchmarks so a broken fast path fails fast, the compiled
# scoring-kernel differential suite, a one-iteration spin of the
# single-row scoring benchmark and of the simulator benchmarks, a soak of
# the serving chaos suite,
# the crash-recovery suite, a one-iteration spin of the serving
# throughput benchmark, an end-to-end scrape of the observability
# surfaces, a short open-loop load-generator run against a live server,
# the metrics naming/statz-drift lint, a short budget for the decoder and
# scoring fuzz targets, and a vet and short test pass over the separate
# bench module.
ci: fmt vet deps-lint build race train-smoke score-diff score-smoke sim-smoke serve-chaos crash-chaos serve-smoke obs-smoke loadgen-smoke metrics-lint fuzz-smoke bench-vet

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# deps-lint lists every package under internal/ that no `go list -deps`
# of the binaries, the examples, the root package or the bench module
# reaches, and fails if there is one: such a package is code that nothing
# runs. It needs only `go list`, so it runs offline.
deps-lint:
	@reached=$$($(GO) list -deps ./cmd/... ./examples/... . && cd bench && $(GO) list -deps ./...) || exit 1; \
	out=$$($(GO) list ./internal/... | grep -vxF "$$reached"); \
	if [ -n "$$out" ]; then echo "$$out"; \
		echo "deps-lint: no binary, example, root package or bench module reaches the packages above" >&2; exit 1; fi

# serve-chaos soaks the scoring-service chaos tests (overload bursts,
# corrupt reloads, slow/aborted clients, drain) under the race detector;
# -count=3 reruns shake out timing-dependent flakes.
serve-chaos:
	$(GO) test -race -run 'TestChaos' -count=3 -timeout 120s ./internal/serve/...

# crash-chaos proves crash safety end to end: real `cfa serve` processes
# are SIGKILLed mid-load and restarted against their last checkpoint
# (verdict continuity, cold-start accounting, torn-file recovery), and the
# failpoint-driven recovery tests (checkpoint write failures, reload and
# admission injection) soak under the race detector.
crash-chaos:
	$(GO) test -count=2 -run 'TestCrashRecovery' -timeout 300s ./cmd/cfa/
	$(GO) test -race -count=2 -timeout 180s \
		-run 'TestCheckpoint|TestRunRestores|TestRunPeriodic|TestChaosHungHandler|TestChaosReloadFailpoint|TestChaosAdmit|TestDecodeCheckpoint' \
		./internal/serve/
	$(GO) test -race -count=2 -timeout 60s ./internal/failpoint/

# loadgen-smoke boots the scoring service on an ephemeral port and runs
# cfa loadgen against it end to end: a 2s open-loop measurement, an
# audit-trace replay and a closed-loop pass, asserting non-zero goodput,
# zero transport errors and a clean drain.
loadgen-smoke:
	$(GO) test -run TestLoadgenSmoke -count 1 -timeout 120s ./cmd/cfa/

# obs-smoke boots the scoring service on ephemeral ports and scrapes
# /metrics, the pprof surface and the /flightz flight-recorder dump end
# to end, then replays the registry encoder golden tests and the
# concurrency hammer under the race detector.
obs-smoke:
	$(GO) test -run TestObsSmoke -count 1 ./cmd/cfa/
	$(GO) test -race -count 1 ./internal/obs/

# metrics-lint pins the observability naming contract: every registered
# metric is cfa_-prefixed snake_case with help text (counters end in
# _total), and every counter /statz reports maps to a live registry
# metric present in the Prometheus exposition.
metrics-lint:
	$(GO) test -run 'TestMetricNamesLint|TestStatzFieldsBackedByRegistryMetrics' \
		-count 1 ./internal/serve/

# score-diff re-runs the compiled-kernel differential suites under the
# race detector: C4.5's and RIPPER's flat forms against their pointer
# walks, the fused Naive Bayes slab against every model's own tables
# (and its refusal of mis-shaped ensembles), plus, in internal/core, the
# end-to-end Score/ScoreEvents/ScoreAll differential (both sides of
# ScoreAll's row-major/columnar crossover) against the test-only
# AvgMatchCount/AvgProbability oracles, the seed corpus of its fuzz
# target (which also pins Explain), the Explain parity tests, the
# compiled normal-level pass against its oracle, the NB footprint pin,
# the stale-compile invalidation regression and the uncomparable-model
# compile-cache regression. Last, ten times over under the race detector,
# the row split of Train's normal-level pass and the training-row tallies
# it keeps for ScoreAll: worker-count invariance against the serial
# results, concurrent ScoreAll callers on one compiled analyzer, when
# ScoreAll reads the tallies, and a worker's panic re-raised on the
# caller.
score-diff:
	$(GO) test -race -run 'TestCompiledDifferential|TestFuseRejectsMisshapes' -count 1 ./internal/ml/...
	$(GO) test -race -count 1 \
		-run 'TestScoreKernelDifferential|FuzzScoreEvents|TestExplain|TestNormalLevelsMatchOracle|TestCompileStatsNaiveBayes|TestCompileInvalidation|TestCompileUncomparableModels' \
		./internal/core/
	$(GO) test -race -count 10 \
		-run 'TestRowSplitInvariance|TestScoreAllConcurrentCallers|TestTrainedScoresServeScoreAll|TestWorkerPanicReachesCaller' \
		./internal/core/

# score-smoke gives each learner's single-row scoring benchmark one
# iteration, so `make ci` exercises the benchmark bodies (and their
# 140-feature training) without paying for a full measurement.
score-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkScoreEvents$$' -benchtime 1x .

# train-smoke re-runs each learner's differential test of Fit against its
# test-only row-major oracle, the direct check of RIPPER's prefix pruning
# against a brute-force rescan, the bit-exactness of the log2 tables, the
# out-of-range-settings regressions, the malformed-row rejection of the
# column view, of each learner's Fit and of Train, and the training
# golden, and gives each training benchmark a single iteration; it exists
# so `make ci` exercises the benchmark bodies without paying for a full
# measurement.
train-smoke:
	$(GO) test -count 1 ./internal/ml/... \
		-run 'TestColumnarDifferential|TestPruneRuleIncremental|TestLog2TablesExact|TestOutOfRangeSettingsUseDefaults|TestColumnsRejectsMalformedRows'
	$(GO) test -run 'TestTrainRejectsMalformedRows' -count 1 . ./internal/core/
	$(GO) test -run 'TestFitRejectsMalformedRows|TestTrainingGolden' -count 1 ./internal/core/
	$(GO) test -run '^$$' -bench '^Benchmark(C45Fit|RipperFit|NBFit|CoreTrain)$$' -benchtime 1x .

# sim-smoke gives the AODV and DSR simulator benchmarks one iteration each,
# so `make ci` exercises their bodies without paying for a measurement.
sim-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkSimulation(AODV|DSR)UDP$$' -benchtime 1x .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector. The experiment studies
# dominate the runtime; use `make short` for a quick pass.
race:
	$(GO) test -race ./...

short:
	$(GO) test -short ./...

# bench runs the root benchmark suite three times with allocation stats and
# records the raw output in a dated BENCH_<date>.json next to this Makefile,
# followed by the stage timings of a quick-preset experiments run (the run
# manifest from -trace). Compare runs with `benchstat` if available, or
# diff the ns/op columns and the manifest stage wall-times.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 3 . | tee BENCH_$$(date +%Y%m%d).json
	$(GO) run ./cmd/experiments -preset quick -only figure3 \
		-trace BENCH_$$(date +%Y%m%d).stages.json >/dev/null
	cat BENCH_$$(date +%Y%m%d).stages.json >> BENCH_$$(date +%Y%m%d).json
	rm -f BENCH_$$(date +%Y%m%d).stages.json

# bench-train measures only the learner training paths (per-learner Fit and
# the end-to-end core.Train ensemble) on the paper-shaped synthetic audit
# dataset, at a fixed five iterations per count on one CPU, five times
# over for a spread (the default one-second benchtime gives CoreTrain only
# one or two ops). Alternate it with a base tree's run to A/B a change.
bench-train:
	$(GO) test -run '^$$' -bench '^Benchmark(C45Fit|RipperFit|NBFit|CoreTrain)$$' \
		-benchtime 5x -cpu 1 -benchmem -count 5 .

# bench-score measures only the inference paths on the same dataset:
# BenchmarkScoreAll over the whole set and over 1-, 8-, 32- and 128-row
# batches (either side of its row-major/columnar choice, ns/rec), the
# single-row path (BenchmarkScoreEvents, one record per call as a
# per-node server scores), per-record attribution (BenchmarkExplain, what
# -feature-metrics adds), plus the C4.5 and RIPPER single-model predict
# kernels. Append the output to the dated BENCH file when recording a
# before/after for a scoring-path change.
bench-score:
	$(GO) test -run '^$$' -timeout 30m \
		-bench '^Benchmark(ScoreAll|ScoreEvents|Explain|C45Predict|RipperPredict)$$' \
		-benchmem -count 3 .

# bench-sim measures the simulator alone: 20-node, 200 s AODV and DSR
# scenarios over a fixed four-seed cycle (40 ops run each seed ten times),
# on one CPU, with allocation counts and events per op, five times over
# for a spread. Alternate it with a base tree's run to A/B a change.
bench-sim:
	$(GO) test -run '^$$' -bench '^BenchmarkSimulation(AODV|DSR)UDP$$' \
		-benchtime 40x -cpu 1 -benchmem -count 5 .

# bench-serve measures end-to-end serving throughput over real HTTP:
# per-record /v1/score against /v1/score-batch at 1, 4 and 16 stream
# shards, reporting records/sec plus server-side p50/p99 latency from
# the obs histograms, followed by the goodput-vs-offered-load sweep:
# cfa loadgen drives 1x/2x/4x of the calibrated peak in open loop with
# adaptive overload control on and then off. The output is appended to
# the dated BENCH file so a before/after for a serving-path change lands
# next to the kernel numbers.
bench-serve:
	$(GO) test -run '^$$' -bench '^BenchmarkServeThroughput$$' -count 3 \
		-timeout 30m ./internal/serve/ | tee -a BENCH_$$(date +%Y%m%d).json
	CFA_LOADGEN_SWEEP=1 $(GO) test -run TestLoadgenSweep -count 1 -v \
		-timeout 20m ./cmd/cfa/ | tee -a BENCH_$$(date +%Y%m%d).json

# serve-smoke gives every serving-throughput benchmark case and the
# request-decode benchmark a single iteration so `make ci` exercises the
# batch and per-record HTTP paths at each shard count, and both decoders,
# without paying for a full measurement.
serve-smoke:
	$(GO) test -run '^$$' -bench '^Benchmark(ServeThroughput|DecodeScoreBatch)$$' -benchtime 1x \
		./internal/serve/

# bench-vet vets and short-tests the benchmark in bench/, a module of its
# own that root `go build ./...` and `go test ./...` never compile, so a
# change to a package it drives cannot break it unnoticed.
bench-vet:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# fuzz gives each fuzz target a brief budget beyond its seed corpus.
fuzz:
	$(GO) test ./internal/features/ -fuzz FuzzTransformValue -fuzztime 10s
	$(GO) test ./internal/features/ -fuzz FuzzReadCSV -fuzztime 10s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzDecodeScoreRequest$$' -fuzztime 10s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzDecodeBatchRequest$$' -fuzztime 10s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzParseTraceContext$$' -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzScoreEvents$$' -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzLoadBundle$$' -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 10s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzReadFlightDump$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadAuditTrace$$' -fuzztime 10s
	$(GO) test ./internal/ml/c45/ -run '^$$' -fuzz '^FuzzC45Fit$$' -fuzztime 10s
	$(GO) test ./internal/ml/ripper/ -run '^$$' -fuzz '^FuzzRipperFit$$' -fuzztime 10s

# fuzz-smoke is fuzz's short budget for `make ci`: the request-body
# decoders against their encoding/json oracle, the counting discretiser
# against its binary-search oracle, the trace-header parser, compiled
# single-row scoring and Explain against the oracle combination rules,
# the bundle loader on gob payloads past the frame checksum, the frame
# reader and the checkpoint payload decoder (with its per-state check)
# against their encoders, the flight-dump file decoder and the audit-trace
# reader round-tripped through their writers, and the C4.5 and RIPPER fits
# against their row-major oracles.
fuzz-smoke:
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzDecodeScoreRequest$$' -fuzztime 3s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzDecodeBatchRequest$$' -fuzztime 3s
	$(GO) test ./internal/features/ -run '^$$' -fuzz '^FuzzTransformValue$$' -fuzztime 3s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzParseTraceContext$$' -fuzztime 3s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzScoreEvents$$' -fuzztime 3s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzLoadBundle$$' -fuzztime 3s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 3s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 3s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzReadFlightDump$$' -fuzztime 3s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadAuditTrace$$' -fuzztime 3s
	$(GO) test ./internal/ml/c45/ -run '^$$' -fuzz '^FuzzC45Fit$$' -fuzztime 3s
	$(GO) test ./internal/ml/ripper/ -run '^$$' -fuzz '^FuzzRipperFit$$' -fuzztime 3s
