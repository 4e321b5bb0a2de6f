# Tier-1 gate: everything `make ci` runs must pass before merging.
# See CONTRIBUTING.md.

GO ?= go

.PHONY: ci build vet lint lint-update pure perfbench test race fuzz bench bench-micro benchparity fastpath golden golden-traces adaptive trace serve obs

ci: vet lint pure perfbench build race adaptive trace fastpath benchparity serve obs

build:
	$(GO) build ./...

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
# other step.
perfbench:
	cd _perfbench && $(GO) vet ./...

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

# Adaptive-executor gate: the reachable-depot property test over its fixed
# seed matrix, the cross-worker determinism test, and the bit-for-bit
# parity check against the reference simulator, all under the race
# detector. (Also covered by `race`; kept separate so the invariant is a
# named CI step.)
adaptive:
	$(GO) test -race -count=1 -run 'TestAdaptiveNeverDiesUnderFaults|TestAdaptiveCountersDeterministicAcrossWorkers|TestAdaptiveMatchesRunFaultFree' ./internal/simulate
	$(GO) test -race -count=1 -run 'TestAdaptiveRunMatchesRunOnFigureDrivers' ./internal/experiments

# Flight-recorder gate: race-enabled trace-determinism tests (stripped
# streams byte-identical across worker counts, golden trace regression,
# tracing-on/off plan parity), then a uavtrace smoke test over a freshly
# generated faulted-mission trace: the summary must render and two
# identical missions must diff clean.
trace:
	$(GO) test -race -count=1 -run 'TestTraceStreamInvariantAcrossWorkers|TestTracingDoesNotChangePlans' ./internal/core
	$(GO) test -race -count=1 -run 'TestGoldenTraces|TestTraceWorkerInvariance' ./internal/experiments
	$(GO) test -race -count=1 -run 'TestPlanUnchangedByTracing|TestExecuteUnchangedByTracing|TestTraceRepeatDeterminism' .
	@tmp=$$(mktemp -d) && \
		$(GO) run ./cmd/uavsim -sensors 20 -side 200 -seed 3 -capacity 8e3 -faults default -trace $$tmp/a.jsonl >/dev/null && \
		$(GO) run ./cmd/uavsim -sensors 20 -side 200 -seed 3 -capacity 8e3 -faults default -trace $$tmp/b.jsonl >/dev/null && \
		$(GO) run ./cmd/uavtrace -top 5 $$tmp/a.jsonl | grep -q "mission timeline:" && \
		$(GO) run ./cmd/uavtrace $$tmp/a.jsonl $$tmp/b.jsonl && \
		rm -rf $$tmp

# Fast-path parity gate: race-enabled differential tests holding the
# spatial-index scan, cached insertion pricing, and memoized matrices to
# bit-identical plans and counters against the retained reference path —
# at the planner level (various worker counts) and across all figure
# drivers at GOMAXPROCS 1/4/8 — plus a paper-scale (δ = 5 m) smoke run of
# the `full` uavbench preset.
fastpath:
	$(GO) test -race -count=1 -run 'TestFastPathMatchesReference|TestSkippedEvalsReconcile|TestFastCountersDeterministicAcrossWorkers' ./internal/core
	$(GO) test -race -count=1 -run 'TestFastPathParityAcrossFigures|TestBenchSpeedupPanel' ./internal/experiments
	$(GO) run ./cmd/uavbench -preset full -fig fig4 -faults none -out /dev/null

# Serving gate: race-enabled daemon and canonical-encoding tests — the
# GOMAXPROCS 1/4/8 cold/warm/coalesced parity check, the failure-mode
# table (backpressure, deadline, shutdown), the golden wire formats, and
# the deterministic serve bench panel — then a 1k-request loopback load
# smoke over real HTTP at the reduced preset: positive cache hit rate,
# zero non-backpressure errors, every body bit-identical to a direct
# plan.
serve:
	$(GO) test -race -count=1 ./internal/canon ./internal/serve ./cmd/uavserve
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

# Regenerate the perf baseline (see EXPERIMENTS.md, "Bench baselines"):
# reduced-preset figure panels, the paper-scale (δ = 5 m)
# fast-vs-reference speedup panel, and the reduced-preset serving
# throughput panel.
bench:
	$(GO) run ./cmd/uavbench -preset reduced -speedup full -serve reduced -out BENCH_PR7.json

# Micro-benchmark behind the speedup panel: candidate generation fast vs
# reference (internal/core).
bench-micro:
	$(GO) test -run XXX -bench 'BenchmarkAlg2' -benchtime 3x ./internal/core

# Baseline-parity gate: BENCH_PR7.json against BENCH_PR6.json. Both run
# the same planner, so every deterministic field of the prior panels —
# volumes, plan calls, all counters, fault scenarios, the speedup eval
# ledger — must be bit-identical, and the new serve panel must be
# internally consistent. Timing fields are excluded.
benchparity:
	$(GO) test -count=1 -run TestBenchPanelsParity ./internal/experiments

# Rewrite the golden volume panels after a deliberate behaviour change.
golden:
	$(GO) test ./internal/experiments -run TestGoldenVolumePanels -update

# Rewrite the golden stripped trace streams after a deliberate change to
# the sequence of planner phases.
golden-traces:
	$(GO) test ./internal/experiments -run TestGoldenTraces -update
