# Tier-1 gate: everything `make ci` runs must pass before merging.
# See CONTRIBUTING.md.

GO ?= go

.PHONY: ci fmt build vet lint lint-update pure perfbench test race fuzz bench bench-micro ledger benchparity fastpath golden golden-traces adaptive trace serve obs

ci: fmt vet lint pure perfbench build race adaptive trace fastpath benchparity serve obs

build:
	$(GO) build ./...

# Formatting gate: fails when gofmt would rewrite any Go file, listing
# the files (`gofmt -w` them).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "make fmt: gofmt would rewrite:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Repo-contract analyzers (determinism, float safety, metric naming,
# error hygiene). Exits non-zero on any non-suppressed diagnostic; see
# CONTRIBUTING.md, "Static analysis".
# lint fails fast and keeps uavlint's exit codes distinct: 1 means the
# analyzers found violations (fix or //uavdc:allow them), 2 means the
# lint engine itself could not load or check the module.
lint:
	@$(GO) run ./cmd/uavlint ./... ; code=$$?; \
	if [ $$code -eq 1 ]; then \
		echo "make lint: analyzer violations (run '$(GO) run ./cmd/uavlint -all -summary ./...' for the full picture)" >&2; exit 1; \
	elif [ $$code -ne 0 ]; then \
		echo "make lint: lint engine error (exit $$code)" >&2; exit $$code; \
	fi

# Purity gate, named so CI logs call it out: the interprocedural
# pureplan analyzer alone must find nothing reachable from the planner
# entry points. `lint` already runs the full suite; this step pins the
# plan-cache purity contract specifically (see CONTRIBUTING.md).
pure:
	$(GO) run ./cmd/uavlint -analyzers pureplan ./...

# Benchmark-module gate: _perfbench is a nested module (see
# BENCHMARK.json) that `go build ./...` never compiles, so a change that
# breaks a symbol only the benchmark uses would otherwise pass every
# other step. Its tests run every workload at tiny scale and require
# each paper-plan result to be byte-equal across passes.
perfbench:
	cd _perfbench && $(GO) vet ./... && $(GO) test ./...

# Rewrite the lint goldens after a deliberate analyzer or fixture
# change: the fixture diagnostic stream (internal/lint) and the three
# CLI goldens (cmd/uavlint: json, list, summary). Review the diff —
# goldens are the analyzers' contract.
lint-update:
	$(GO) test ./internal/lint -run TestFixtureGolden -update
	$(GO) test ./cmd/uavlint -run 'TestRunFixtureJSON|TestRunList|TestRunFixtureSummary' -update

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz pass over every target; extend -fuzztime for a deeper run.
fuzz:
	$(GO) test -fuzz FuzzReadScenario -fuzztime 10s .
	$(GO) test -fuzz FuzzPlanSmallScenarios -fuzztime 10s .
	$(GO) test -fuzz FuzzValidatorSimulatorAgreement -fuzztime 10s .
	$(GO) test -fuzz FuzzFaultSchedule -fuzztime 10s ./internal/faults
	$(GO) test -fuzz FuzzAllowDirective -fuzztime 10s ./internal/lint
	$(GO) test -fuzz FuzzCanonicalInstance -fuzztime 10s ./internal/canon
	$(GO) test -fuzz FuzzRetourMatchesImprove -fuzztime 10s ./internal/tsp
	$(GO) test -fuzz FuzzFastMatchesReference -fuzztime 10s ./internal/core
	$(GO) test -fuzz FuzzServeRequest -fuzztime 10s ./internal/serve

# Adaptive-executor gate: the reachable-depot property test over its fixed
# seed matrix, the bit-for-bit parity check against the reference simulator, and the replanner's
# golden plans (K = 1, K = 4, a no-hover zone, zero budget), all under
# the race detector. (Also covered by `race`; kept separate so the
# invariant is a named CI step.)
adaptive:
	$(GO) test -race -count=1 -run 'TestReplanGolden' ./internal/core
	$(GO) test -race -count=1 -run 'TestAdaptiveNeverDiesUnderFaults|TestAdaptiveMatchesRunFaultFree' ./internal/simulate
	$(GO) test -race -count=1 -run 'TestAdaptiveRunMatchesRunOnFigureDrivers' ./internal/experiments

# Flight-recorder gate: race-enabled trace-determinism tests (golden trace
# regression, tracing-on/off plan parity, repeat determinism), then a
# uavtrace smoke test over a freshly generated faulted-mission trace: the
# summary must render and two identical missions must diff clean.
trace:
	$(GO) test -race -count=1 -run 'TestTracingDoesNotChangePlans' ./internal/core
	$(GO) test -race -count=1 -run 'TestGoldenTraces' ./internal/experiments
	$(GO) test -race -count=1 -run 'TestPlanUnchangedByTracing|TestExecuteUnchangedByTracing|TestTraceRepeatDeterminism' .
	@tmp=$$(mktemp -d) && \
		$(GO) run ./cmd/uavsim -sensors 20 -side 200 -seed 3 -capacity 8e3 -faults default -trace $$tmp/a.jsonl >/dev/null && \
		$(GO) run ./cmd/uavsim -sensors 20 -side 200 -seed 3 -capacity 8e3 -faults default -trace $$tmp/b.jsonl >/dev/null && \
		$(GO) run ./cmd/uavtrace -top 5 $$tmp/a.jsonl | grep -q "mission timeline:" && \
		$(GO) run ./cmd/uavtrace $$tmp/a.jsonl $$tmp/b.jsonl && \
		rm -rf $$tmp

# Fast-path parity gate: race-enabled differential tests holding the
# spatial-index scan, cached insertion pricing, memoized matrices and the
# baselines' re-tour certificate to bit-identical plans and counters
# against the retained reference path — at the planner level, against the
# greedy planners' golden plans, and across all figure drivers — the
# ratio greedy's ladder and insertion caches to a fresh recomputation and
# its re-tour to ImproveMetric after every acceptance, and the replayed
# re-tours (tsp.Pruner, tsp.Retour) to Improve after every edit. The paper-scale (δ = 5 m) run
# of both paths is the ledger's speedup panel, which benchparity checks.
fastpath:
	$(GO) test -race -count=1 -run 'TestGreedyGolden|TestFastPathMatchesReference|TestSkippedEvalsReconcile|TestLadderCacheMatchesFresh|TestLadderCachePastCapMatchesReference|TestInsertionMemoMatchesScan|TestRetourMatchesImproveMetric' ./internal/core
	$(GO) test -race -count=1 -run 'TestRetourMatchesImprove|TestRetourTypeMatchesImprove|TestRetourSkipsCertifiedEvaluations|TestRotationDropsCertificate' ./internal/tsp
	$(GO) test -race -count=1 -run 'TestFastPathParityAcrossFigures|TestBenchSpeedupPanel' ./internal/experiments

# Serving gate: race-enabled daemon and canonical-encoding tests — the
# GOMAXPROCS 1/4/8 cold/warm/coalesced parity check, the failure-mode
# table (backpressure, deadline, shutdown), the golden wire formats, the
# body memo's parity, bounds and bad-body tests (named on their own line
# so a renamed one fails makefile_test.go), and the deterministic serve
# bench panel — then a 1k-request loopback load smoke over real HTTP at
# the reduced preset: positive cache hit rate, zero non-backpressure
# errors, every body bit-identical to a direct plan.
serve:
	$(GO) test -race -count=1 ./internal/canon ./cmd/uavserve
	$(GO) test -race -count=1 -skip 'TestBodyMemo|FuzzServeRequest' ./internal/serve
	$(GO) test -race -count=1 -run 'TestBodyMemoHTTPParity|TestBodyMemoBadBodiesNeverMemoized|TestBodyMemoEvictedPlanReplans|TestBodyMemoDisabled|TestBodyMemoBounded|TestBodyMemoConcurrentRepeats|TestBodyMemoOversizeErrorText|FuzzServeRequest' ./internal/serve
	$(GO) test -race -count=1 -run 'TestBenchServePanel|TestServeRequestsDeterministic' ./internal/experiments
	$(GO) run ./cmd/uavserve -smoke 1000 -preset reduced -distinct 8 -clients 16

# Observability gate: race-enabled op-log and analyzer tests — the
# GOMAXPROCS 1/4/8 stripped op-log golden, the stalled-writer
# backpressure check, the window/runtime/health wire goldens, and the
# uavobs subcommands — then a smoke run: uavserve -smoke with op-logging
# on, the stream summarized by uavobs (every record accounted for) and
# diffed against itself (self-diff must be clean).
obs:
	$(GO) test -race -count=1 ./internal/oplog ./cmd/uavobs
	$(GO) test -race -count=1 -run 'TestOpLog|TestWindow|TestBackgroundSampler|TestGoldenHealthz|TestGoldenWindow|TestGoldenRuntime|TestDebugOplog' ./internal/serve
	@tmp=$$(mktemp -d) && \
		$(GO) run ./cmd/uavserve -smoke 200 -preset tiny -distinct 4 -clients 8 -oplog $$tmp/op.jsonl >/dev/null && \
		$(GO) run ./cmd/uavobs summary -top 3 $$tmp/op.jsonl | grep -q "records 200" && \
		$(GO) run ./cmd/uavobs diff $$tmp/op.jsonl $$tmp/op.jsonl && \
		rm -rf $$tmp

# The repo's one timing benchmark: the _perfbench workloads declared in
# BENCHMARK.json (see _perfbench/README.md), each built from this
# checkout and run for BENCHMARK.json's 30 s window.
bench:
	bash _perfbench/run.sh --workload paper-plan --seed 1 --seconds 30 --trace 0
	bash _perfbench/run.sh --workload hit-heavy --seed 1 --seconds 30 --trace 0
	bash _perfbench/run.sh --workload miss-churn --seed 1 --seconds 30 --trace 0

# Micro-benchmarks: candidate generation fast vs reference (behind the
# speedup panel) and one PaperTight-size baseline plan (internal/core),
# and one 500-item Improve on a matrix (internal/tsp).
bench-micro:
	$(GO) test -run XXX -bench 'BenchmarkAlg2|BenchmarkBaselinePlan' -benchtime 3x ./internal/core
	$(GO) test -run XXX -bench 'BenchmarkImprove' -benchtime 3x ./internal/tsp

# Rewrite the deterministic bench ledger (see EXPERIMENTS.md, "The
# deterministic ledger") after a deliberate behaviour change. Review the
# diff: every changed number is a changed plan or a changed amount of
# work.
ledger:
	$(GO) run ./cmd/uavbench > BENCH_LEDGER.json.tmp && mv BENCH_LEDGER.json.tmp BENCH_LEDGER.json

# Ledger-parity gate: regenerate the ledger from the code — figure
# volumes, plan calls, every counter, the fault panel, the paper-scale
# fast-vs-reference eval ledger, the serve panel's counters — and diff
# it byte for byte against the committed BENCH_LEDGER.json.
benchparity:
	$(GO) run ./cmd/uavbench | diff -u BENCH_LEDGER.json -

# Rewrite the golden volume panels after a deliberate behaviour change.
golden:
	$(GO) test ./internal/experiments -run TestGoldenVolumePanels -update

# Rewrite the golden stripped trace streams after a deliberate change to
# the sequence of planner phases.
golden-traces:
	$(GO) test ./internal/experiments -run TestGoldenTraces -update
