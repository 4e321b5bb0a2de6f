// Package obs is a zero-dependency, deterministic instrumentation layer
// for the planners: named counters, histograms and gauges handed out by a
// Recorder. The planners thread a Recorder through their hot paths —
// candidate evaluations, Christofides runs, blossom matchings, local-search
// passes — so a run can report *why* it was slow, not just how long it
// took.
//
// Design rules:
//
//   - Recording never changes planner output. The default Recorder is
//     Discard, a no-op whose handles are shared singletons; uninstrumented
//     runs pay one interface call per event.
//   - Counter totals are exactly reproducible: for a fixed instance every
//     run records the same totals.
//   - Wall-clock observations (WallSuffix histograms) and gauges are not
//     reproducible and stay out of determinism comparisons.
package obs

// Recorder hands out named Counter, Histogram, and Gauge handles. Handles
// are stable: two calls with the same name affect the same underlying cell,
// so hot loops should fetch handles once, outside the loop.
type Recorder interface {
	// Counter returns the named monotonically increasing counter.
	Counter(name string) Counter
	// Histogram returns the named fixed-bucket histogram. The boundaries
	// of the first call for a name win; later calls for the same name may
	// pass nil. Histograms over deterministic values (energies, volumes,
	// counts) share the counters' reproducibility guarantee; histograms
	// observing wall-clock durations must use a name ending in
	// WallSuffix and are excluded from determinism comparisons.
	Histogram(name string, buckets []float64) Histogram
	// Gauge returns the named point-in-time level. Unlike counters,
	// gauges are instantaneous readings (queue depths, cache sizes) and
	// are excluded from determinism comparisons.
	Gauge(name string) Gauge
}

// Gauge is a point-in-time level: Set replaces the value, Add moves it.
type Gauge interface {
	// Set replaces the gauge's value.
	Set(v int64)
	// Add moves the gauge by delta (which may be negative).
	Add(delta int64)
}

// Histogram is a fixed-bucket distribution: Observe(v) increments the
// bucket of the first boundary ≥ v (the overflow bucket when v exceeds
// every boundary) and accumulates count and sum.
type Histogram interface {
	// Observe records one value.
	Observe(v float64)
}

// WallSuffix marks a histogram as holding wall-clock observations: any
// histogram whose name ends in this suffix is excluded from
// Snapshot.Equal and Snapshot.Diff, because wall times are inherently not
// reproducible. Deterministic histograms must not use the suffix.
const WallSuffix = ".seconds"

// Counter is a monotonically increasing event count.
type Counter interface {
	// Inc adds one.
	Inc()
	// Add adds n (n ≥ 0).
	Add(n int64)
}

// Discard is the no-op Recorder every planner defaults to. Its handles are
// shared stateless singletons, safe for concurrent use from any number of
// goroutines.
var Discard Recorder = nopRecorder{}

type nopRecorder struct{}

type nopCounter struct{}

type nopHistogram struct{}

type nopGauge struct{}

func (nopRecorder) Counter(string) Counter                { return nopCounter{} }
func (nopRecorder) Histogram(string, []float64) Histogram { return nopHistogram{} }
func (nopRecorder) Gauge(string) Gauge                    { return nopGauge{} }

func (nopCounter) Inc()              {}
func (nopCounter) Add(int64)         {}
func (nopHistogram) Observe(float64) {}
func (nopGauge) Set(int64)           {}
func (nopGauge) Add(int64)           {}

// OrDiscard resolves an optional recorder: nil becomes Discard.
func OrDiscard(r Recorder) Recorder {
	if r == nil {
		return Discard
	}
	return r
}

// First returns the first non-nil recorder of an optional variadic tail,
// or Discard. It lets instrumented packages keep their original signatures:
//
//	func Improve(t *Tour, m Metric, rec ...obs.Recorder) float64
func First(recs ...Recorder) Recorder {
	for _, r := range recs {
		if r != nil {
			return r
		}
	}
	return Discard
}
