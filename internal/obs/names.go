package obs

import "strings"

// NameKind classifies a canonical instrumentation name by the API it is
// passed to. The uavlint obsnames analyzer enforces that every name
// reaching Recorder.Counter/Histogram/Gauge or
// trace.Tracer.Begin/Event is registered here under the matching kind,
// so the instrumentation vocabulary cannot drift from the registry (and,
// via the registry's EXPERIMENTS.md cross-check test, from the
// documentation).
type NameKind uint8

const (
	// KindCounter names a Recorder.Counter.
	KindCounter NameKind = iota
	// KindHistogram names a Recorder.Histogram.
	KindHistogram
	// KindSpan names a trace span (Tracer.Begin).
	KindSpan
	// KindEvent names a trace point event (Tracer.Event).
	KindEvent
	// KindGauge names a Recorder.Gauge.
	KindGauge
)

// String returns the kind as it appears in the EXPERIMENTS.md registry
// table.
func (k NameKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	case KindSpan:
		return "span"
	case KindEvent:
		return "event"
	case KindGauge:
		return "gauge"
	}
	return "unknown"
}

// canonicalNames is the single authoritative list of instrumentation
// names. A trailing "/*" segment is a wildcard matching any non-empty
// suffix — "mission/*" covers the executor event vocabulary built at run
// time from simulate.MissionEventPrefix + EventKind.String().
//
// The literals here intentionally duplicate the constants declared next
// to their recording sites (core.Counter*, tsp.Span*, ...): obs is
// imported by all of them, so it cannot import them back, and the
// duplication is exactly what uavlint's obsnames analyzer cross-checks.
// Adding a recording site with an unregistered name, or renaming a
// constant without updating this table (or EXPERIMENTS.md), fails
// `make ci`.
var canonicalNames = map[string]NameKind{
	// Planner work counters (internal/core).
	"core.candidate_evals":      KindCounter,
	"core.pruned_over_budget":   KindCounter,
	"core.residual_recomputes":  KindCounter,
	"core.accepted_stops":       KindCounter,
	"core.upgraded_stops":       KindCounter,
	"core.bench_removals":       KindCounter,
	"core.scan_skipped_drained": KindCounter,
	"core.lns_rounds":           KindCounter,
	"core.lns_improvements":     KindCounter,

	// Solver-stack counters.
	"tsp.christofides_runs":         KindCounter,
	"tsp.twoopt_passes":             KindCounter,
	"tsp.twoopt_moves":              KindCounter,
	"tsp.oropt_passes":              KindCounter,
	"tsp.oropt_moves":               KindCounter,
	"matching.blossom_runs":         KindCounter,
	"matching.greedy_runs":          KindCounter,
	"orienteering.exact_runs":       KindCounter,
	"orienteering.greedy_runs":      KindCounter,
	"orienteering.toursplit_runs":   KindCounter,
	"orienteering.localsearch_runs": KindCounter,

	// Adaptive-executor counters and histograms (internal/simulate).
	"replan.triggered":           KindCounter,
	"faults.applied":             KindCounter,
	"exec.energy_deviation":      KindCounter,
	"exec.stops_skipped":         KindCounter,
	"exec.energy_deviation_hist": KindHistogram,

	// Serving-layer counters, queue-depth gauge, latency histogram, and
	// request span (internal/serve).
	"serve.requests":        KindCounter,
	"serve.hits":            KindCounter,
	"serve.misses":          KindCounter,
	"serve.coalesced":       KindCounter,
	"serve.rejected":        KindCounter,
	"serve.timeouts":        KindCounter,
	"serve.errors":          KindCounter,
	"serve.plans":           KindCounter,
	"serve.evictions":       KindCounter,
	"serve.oplog.records":   KindCounter,
	"serve.oplog.dropped":   KindCounter,
	"serve.window.samples":  KindCounter,
	"serve.body_memo_hits":  KindCounter,
	"serve.queue_depth":     KindGauge,
	"serve.latency.seconds": KindHistogram,
	"serve/request":         KindSpan,

	// Planner phase spans (internal/core).
	"plan/alg1":                KindSpan,
	"plan/alg1/candidates":     KindSpan,
	"plan/alg1/orienteering":   KindSpan,
	"plan/alg2":                KindSpan,
	"plan/alg2/candidates":     KindSpan,
	"plan/alg2/iterate":        KindSpan,
	"plan/alg3":                KindSpan,
	"plan/alg3/candidates":     KindSpan,
	"plan/alg3/iterate":        KindSpan,
	"plan/benchmark":           KindSpan,
	"plan/benchmark/construct": KindSpan,
	"plan/benchmark/prune":     KindSpan,
	"plan/replan":              KindSpan,
	"plan/replan/iterate":      KindSpan,

	// Solver-stack spans.
	"tsp/christofides":          KindSpan,
	"tsp/christofides/mst":      KindSpan,
	"tsp/christofides/matching": KindSpan,
	"tsp/christofides/euler":    KindSpan,
	"tsp/improve":               KindSpan,
	"matching/blossom":          KindSpan,
	"matching/greedy":           KindSpan,
	"orienteering/exact":        KindSpan,
	"orienteering/greedy":       KindSpan,
	"orienteering/toursplit":    KindSpan,
	"orienteering/localsearch":  KindSpan,

	// Experiment-driver spans (internal/experiments).
	"sweep/point": KindSpan,
	"sweep/plan":  KindSpan,

	// Detail and executor events.
	"scan/eval":    KindEvent,
	"bench/remove": KindEvent,
	"mission/*":    KindEvent,
}

// LookupCanonical resolves a concrete instrumentation name against the
// registry: an exact entry wins, otherwise a "prefix/*" wildcard entry
// matches any name of the form "prefix/<non-empty suffix>".
func LookupCanonical(name string) (NameKind, bool) {
	if kind, ok := canonicalNames[name]; ok {
		return kind, true
	}
	for pattern, kind := range canonicalNames {
		if prefix, ok := strings.CutSuffix(pattern, "/*"); ok &&
			strings.HasPrefix(name, prefix+"/") && len(name) > len(prefix)+1 {
			return kind, true
		}
	}
	return 0, false
}

// LookupCanonicalPrefix reports whether names built at run time from the
// given constant prefix (for example simulate.MissionEventPrefix,
// "mission/") are covered by a wildcard registry entry, and under which
// kind. The prefix must end in "/" and match a "prefix/*" entry exactly.
func LookupCanonicalPrefix(prefix string) (NameKind, bool) {
	trimmed, ok := strings.CutSuffix(prefix, "/")
	if !ok {
		return 0, false
	}
	kind, ok := canonicalNames[trimmed+"/*"]
	return kind, ok
}
