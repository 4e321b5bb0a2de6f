package serve

// Canonical serve.* instrumentation names. Registered in
// internal/obs/names.go and documented in EXPERIMENTS.md; the uavlint
// obsnames analyzer cross-checks every recording site below against that
// registry.
const (
	// CounterRequests counts every request reaching Server.Do, whatever
	// its outcome.
	CounterRequests = "serve.requests"
	// CounterHits counts requests answered from the plan cache.
	CounterHits = "serve.hits"
	// CounterMisses counts requests that opened a new planner flight.
	CounterMisses = "serve.misses"
	// CounterCoalesced counts requests that joined an in-flight
	// identical computation instead of planning again.
	CounterCoalesced = "serve.coalesced"
	// CounterRejected counts requests refused because the worker queue
	// was full (backpressure) or the server was draining.
	CounterRejected = "serve.rejected"
	// CounterTimeouts counts waiters whose deadline expired before their
	// flight landed; the flight keeps running and still fills the cache.
	CounterTimeouts = "serve.timeouts"
	// CounterErrors counts flights whose planner returned an error.
	CounterErrors = "serve.errors"
	// CounterPlans counts actual planner executions — the coalescing
	// property tests assert exactly one per distinct key.
	CounterPlans = "serve.plans"
	// CounterEvictions counts LRU cache evictions.
	CounterEvictions = "serve.evictions"
	// CounterOplogRecords counts op-log records accepted by the async
	// writer (only meaningful when Config.OpLog is set).
	CounterOplogRecords = "serve.oplog.records"
	// CounterOplogDropped counts op-log records dropped because the
	// writer's buffer was full — the cost of never letting a slow log
	// sink backpressure planning.
	CounterOplogDropped = "serve.oplog.dropped"
	// CounterWindowSamples counts rolling-window samples taken, by the
	// background sampler or manual Sample calls.
	CounterWindowSamples = "serve.window.samples"
	// CounterBodyMemoHits counts /plan requests served as cache hits
	// from the body memo, without decoding or keying the body; each is
	// also counted on serve.requests and serve.hits.
	CounterBodyMemoHits = "serve.body_memo_hits"
	// HistLatency is the wall-clock request latency histogram. The
	// obs.WallSuffix name keeps it out of determinism comparisons,
	// exactly like Timers.
	HistLatency = "serve.latency.seconds"
	// SpanRequest is the per-request trace span streamed to the
	// configured trace writer.
	SpanRequest = "serve/request"
	// GaugeQueueDepth is the instantaneous worker-queue depth, registered
	// as an obs.Gauge and refreshed on every metrics render and window
	// sample.
	GaugeQueueDepth = "serve.queue_depth"
)

// latencyBuckets are the serve.latency.seconds boundaries, chosen around
// the reduced-preset plan time (~10 ms) with decade coverage both ways.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}
