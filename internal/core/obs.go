package core

import (
	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// Instrumentation counter names recorded by the planners. All counts are
// exactly reproducible for a fixed instance: the planners are serial.
const (
	// CounterCandidateEvals counts candidate (or candidate-location)
	// evaluations across all greedy iterations — on the fast path only the
	// real scorings, not the skipped or reused ones; the benchmark's
	// removal scans contribute their per-removal candidate checks here too.
	CounterCandidateEvals = "core.candidate_evals"
	// CounterPrunedOverBudget counts candidate evaluations (levels, for
	// Algorithm 3) rejected because accepting them would exceed the
	// energy budget.
	CounterPrunedOverBudget = "core.pruned_over_budget"
	// CounterResidualRecomputes counts residual drain-time recomputations
	// (hover.ResidualDrain calls) — the paper's Algorithm 3 line 12: one
	// per ladder rebuild (Algorithm 2's one-rung ladders included), which
	// the fast path does only for the locations the last acceptance
	// changed (every evaluation on the reference path).
	CounterResidualRecomputes = "core.residual_recomputes"
	// CounterAcceptedStops counts stops newly inserted into the tour.
	CounterAcceptedStops = "core.accepted_stops"
	// CounterUpgradedStops counts Algorithm 3 in-place sojourn upgrades
	// of stops already in the tour (Lemma 2).
	CounterUpgradedStops = "core.upgraded_stops"
	// CounterScanSkippedDrained counts candidate evaluations the fast scan
	// proved unnecessary and skipped: locations whose covered sensors are
	// all fully drained, which the reference scan would evaluate and
	// discard (award 0). Per iteration, fast evals + skipped + reused
	// offers (CounterScanReusedOffers) equals the reference scan's evals —
	// the differential suite asserts exactly that, so the counter doubles
	// as the pruning-soundness oracle.
	CounterScanSkippedDrained = "core.scan_skipped_drained"
	// CounterScanReusedOffers counts candidate evaluations the fast scan
	// answered from a location's last offer without re-scoring it: its
	// ladder and insertion delta were unchanged, the route energy had not
	// fallen, and the offered level still fitted the budget (fastscan.go).
	// Per planner run, fast evals + skipped + reused equals the reference
	// scan's evals exactly.
	CounterScanReusedOffers = "core.scan_reused_offers"
	// CounterBenchRemovals counts nodes pruned from the benchmark's
	// initial TSP tour to reach feasibility.
	CounterBenchRemovals = "core.bench_removals"
	// CounterLNSRounds counts LNS destroy/repair rounds executed.
	CounterLNSRounds = "core.lns_rounds"
	// CounterLNSImprovements counts LNS rounds that improved the
	// incumbent plan.
	CounterLNSImprovements = "core.lns_improvements"
)

// Trace span and event names emitted by the planners. Spans nest
// (plan/alg2 > plan/alg2/iterate > tsp/improve); the per-candidate
// EventScanEval detail event is only emitted when the attached tracer
// has Detail() on, because it scales with candidates × iterations. Like
// the counters, the record stream (modulo wall times) is exactly
// reproducible.
const (
	SpanPlanAlg1             = "plan/alg1"
	SpanPlanAlg1Candidates   = "plan/alg1/candidates"
	SpanPlanAlg1Orienteering = "plan/alg1/orienteering"
	SpanPlanAlg2             = "plan/alg2"
	SpanPlanAlg2Candidates   = "plan/alg2/candidates"
	SpanPlanAlg2Iterate      = "plan/alg2/iterate"
	SpanPlanAlg3             = "plan/alg3"
	SpanPlanAlg3Candidates   = "plan/alg3/candidates"
	SpanPlanAlg3Iterate      = "plan/alg3/iterate"
	SpanPlanBench            = "plan/benchmark"
	SpanPlanBenchConstruct   = "plan/benchmark/construct"
	SpanPlanBenchPrune       = "plan/benchmark/prune"
	SpanPlanReplan           = "plan/replan"
	SpanPlanReplanIterate    = "plan/replan/iterate"
	// EventScanEval is the per-candidate detail event (attr loc = the
	// hover-set id being priced).
	EventScanEval = "scan/eval"
	// EventBenchRemove marks one node pruned from the benchmark tour
	// (attr item = the removed item id).
	EventBenchRemove = "bench/remove"
)

// obsRecorder resolves the instance's optional recorder.
func (in *Instance) obsRecorder() obs.Recorder { return obs.OrDiscard(in.Obs) }

// tracer resolves the tracer riding on the instance's recorder (see
// trace.With); trace.Discard when the run is untraced.
func (in *Instance) tracer() trace.Tracer { return trace.Of(in.obsRecorder()) }

// scanObs caches the candidate-scan counter handles so the hot evaluation
// loop pays no per-event name lookup.
type scanObs struct {
	evals  obs.Counter
	pruned obs.Counter
	resid  obs.Counter
	reused obs.Counter
	tr     trace.Tracer
	detail bool
}

func newScanObs(r obs.Recorder) scanObs {
	t := trace.Of(r)
	return scanObs{
		evals:  r.Counter(CounterCandidateEvals),
		pruned: r.Counter(CounterPrunedOverBudget),
		resid:  r.Counter(CounterResidualRecomputes),
		reused: r.Counter(CounterScanReusedOffers),
		tr:     t,
		detail: t.Enabled() && t.Detail(),
	}
}

// evalHit records one candidate evaluation: the counter always, plus a
// scan/eval trace event when detail tracing is on.
func (so scanObs) evalHit(loc int) {
	so.evals.Inc()
	if so.detail {
		so.tr.Event(EventScanEval, trace.Int("loc", loc))
	}
}
