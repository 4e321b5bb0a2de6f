package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is the standard Recorder: a named set of counters, histograms
// and gauges. Handle lookup takes a mutex; the handles themselves are
// lock-free (counters, gauges) or internally locked (histograms), so a
// Registry may be shared
// across goroutines — though parallel planner sections prefer per-worker
// shards (Shards) to keep recording deterministic by construction.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*counterCell
	hists    map[string]*histCell
	gauges   map[string]*gaugeCell
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*counterCell{},
		hists:    map[string]*histCell{},
		gauges:   map[string]*gaugeCell{},
	}
}

type counterCell struct{ n atomic.Int64 }

func (c *counterCell) Inc()        { c.n.Add(1) }
func (c *counterCell) Add(n int64) { c.n.Add(n) }

// Counter implements Recorder.
func (r *Registry) Counter(name string) Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &counterCell{}
		r.counters[name] = c
	}
	return c
}

type gaugeCell struct{ v atomic.Int64 }

func (g *gaugeCell) Set(v int64)     { g.v.Store(v) }
func (g *gaugeCell) Add(delta int64) { g.v.Add(delta) }

// Gauge implements Recorder.
func (r *Registry) Gauge(name string) Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &gaugeCell{}
		r.gauges[name] = g
	}
	return g
}

// histCell is a fixed-bucket histogram: counts[i] tallies observations
// v ≤ bounds[i]; counts[len(bounds)] is the overflow bucket.
type histCell struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	count  int64
	sum    float64
}

func (h *histCell) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Histogram implements Recorder. The bucket boundaries of the first call
// for a name win; later calls may pass nil. Boundaries are sorted and
// deduplicated; an empty boundary set yields a single (overflow) bucket.
func (r *Registry) Histogram(name string, buckets []float64) Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		dedup := bounds[:0]
		for i, b := range bounds {
			if i == 0 || b != dedup[len(dedup)-1] {
				dedup = append(dedup, b)
			}
		}
		h = &histCell{bounds: dedup, counts: make([]int64, len(dedup)+1)}
		r.hists[name] = h
	}
	return h
}

// HistStat is one histogram's aggregate in a Snapshot.
type HistStat struct {
	// Buckets is the sorted upper boundary of each bucket; Counts has one
	// extra trailing entry for the overflow bucket.
	Buckets []float64
	Counts  []int64
	// Count and Sum aggregate every observation.
	Count int64
	Sum   float64
}

// Snapshot is a point-in-time copy of a registry's totals. Gauges are
// instantaneous levels (queue depths, cache sizes), excluded from Equal
// and Diff exactly like WallSuffix histograms.
type Snapshot struct {
	Counters map[string]int64
	Hists    map[string]HistStat
	Gauges   map[string]int64
}

// Snapshot copies the registry's current totals.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Hists:    make(map[string]HistStat, len(r.hists)),
		Gauges:   make(map[string]int64, len(r.gauges)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.n.Load()
	}
	for name, h := range r.hists {
		h.mu.Lock()
		snap.Hists[name] = HistStat{
			Buckets: append([]float64(nil), h.bounds...),
			Counts:  append([]int64(nil), h.counts...),
			Count:   h.count,
			Sum:     h.sum,
		}
		h.mu.Unlock()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.v.Load()
	}
	return snap
}

// CounterNames returns the counter names in sorted order — the canonical
// iteration order for rendering and comparison.
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// HistNames returns the histogram names in sorted order.
func (s Snapshot) HistNames() []string {
	names := make([]string, 0, len(s.Hists))
	for name := range s.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns the gauge names in sorted order.
func (s Snapshot) GaugeNames() []string {
	names := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// deterministicHist reports whether the named histogram participates in
// determinism comparisons: wall-clock histograms (WallSuffix names) are
// excluded.
func deterministicHist(name string) bool {
	return !strings.HasSuffix(name, WallSuffix)
}

// histEqual compares two histograms' bucket counts.
func histEqual(a, b HistStat) bool {
	if a.Count != b.Count || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i, n := range a.Counts {
		if b.Counts[i] != n {
			return false
		}
	}
	return true
}

// Equal reports whether two snapshots have identical counter totals and
// deterministic-histogram bucket counts (WallSuffix histograms are
// wall-clock and excluded from equality).
//
//uavdc:allow deadexport test oracle: the core, simulate and obs determinism tests compare counter snapshots with it
func (s Snapshot) Equal(o Snapshot) bool {
	if len(s.Counters) != len(o.Counters) {
		return false
	}
	for name, n := range s.Counters {
		if o.Counters[name] != n {
			return false
		}
	}
	for name, h := range s.Hists {
		if !deterministicHist(name) {
			continue
		}
		oh, ok := o.Hists[name]
		if !ok || !histEqual(h, oh) {
			return false
		}
	}
	for name := range o.Hists {
		if !deterministicHist(name) {
			continue
		}
		if _, ok := s.Hists[name]; !ok {
			return false
		}
	}
	return true
}

// Diff returns a human-readable description of the counter differences
// between s and o, one "name: a != b" line per mismatch, empty when Equal.
//
//uavdc:allow deadexport test oracle: the core, simulate and obs determinism tests report snapshot mismatches with it
func (s Snapshot) Diff(o Snapshot) string {
	seen := map[string]bool{}
	var out string
	for _, name := range s.CounterNames() {
		seen[name] = true
		if a, b := s.Counters[name], o.Counters[name]; a != b {
			out += fmt.Sprintf("%s: %d != %d\n", name, a, b)
		}
	}
	for _, name := range o.CounterNames() {
		if !seen[name] && o.Counters[name] != 0 {
			out += fmt.Sprintf("%s: 0 != %d\n", name, o.Counters[name])
		}
	}
	for _, name := range s.HistNames() {
		if !deterministicHist(name) {
			continue
		}
		if !histEqual(s.Hists[name], o.Hists[name]) {
			out += fmt.Sprintf("%s: %v != %v\n", name, s.Hists[name].Counts, o.Hists[name].Counts)
		}
	}
	for _, name := range o.HistNames() {
		if _, ok := s.Hists[name]; !ok && deterministicHist(name) && o.Hists[name].Count != 0 {
			out += fmt.Sprintf("%s: absent != %v\n", name, o.Hists[name].Counts)
		}
	}
	return out
}

// WriteTo renders the snapshot as sorted "name value" lines: counters
// first, then histograms as
// "name count sum ≤b:n ... >b:n", then gauges as "name value". Every
// section iterates its names in sorted order, so the rendering is
// diff-stable. Implements io.WriterTo.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, name := range s.CounterNames() {
		n, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name])
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	for _, name := range s.HistNames() {
		h := s.Hists[name]
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s %d %g", name, h.Count, h.Sum)
		for i, b := range h.Buckets {
			fmt.Fprintf(&sb, " ≤%g:%d", b, h.Counts[i])
		}
		if len(h.Counts) > 0 {
			over := h.Counts[len(h.Counts)-1]
			if len(h.Buckets) > 0 {
				fmt.Fprintf(&sb, " >%g:%d", h.Buckets[len(h.Buckets)-1], over)
			} else {
				fmt.Fprintf(&sb, " all:%d", over)
			}
		}
		sb.WriteByte('\n')
		n, err := io.WriteString(w, sb.String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	for _, name := range s.GaugeNames() {
		n, err := fmt.Fprintf(w, "%s %d\n", name, s.Gauges[name])
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Sub returns the bucket-wise difference h − o: the distribution of the
// observations recorded between snapshot o and snapshot h of the same
// histogram. A zero-value or layout-mismatched o leaves h unchanged, so
// callers can subtract "no prior sample" safely.
func (h HistStat) Sub(o HistStat) HistStat {
	out := HistStat{
		Buckets: append([]float64(nil), h.Buckets...),
		Counts:  append([]int64(nil), h.Counts...),
		Count:   h.Count,
		Sum:     h.Sum,
	}
	if len(o.Counts) != len(h.Counts) {
		return out
	}
	for i, n := range o.Counts {
		out.Counts[i] -= n
	}
	out.Count -= o.Count
	out.Sum -= o.Sum
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the recorded
// distribution by linear interpolation inside the bucket holding the
// rank, the way the bucket-count layout allows and nothing more:
//
//   - an empty histogram returns 0;
//   - a histogram with no finite boundaries (one overflow bucket)
//     returns the mean Sum/Count, the only estimate the layout supports;
//   - ranks landing in the overflow bucket return the largest finite
//     boundary — the estimator never extrapolates past what it measured;
//   - otherwise the value interpolates linearly between the bucket's
//     boundaries (the first bucket's lower edge is taken as 0; the
//     estimator targets nonnegative measurements such as latencies).
//
// The estimate is a pure function of the bucket counts, so it is
// deterministic and independent of observation or merge order.
func (h HistStat) Quantile(q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if len(h.Buckets) == 0 {
		return h.Sum / float64(h.Count)
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) < rank || cum == 0 {
			continue
		}
		if i >= len(h.Buckets) {
			return h.Buckets[len(h.Buckets)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Buckets[i-1]
		}
		hi := h.Buckets[i]
		frac := (rank - float64(cum-c)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	return h.Buckets[len(h.Buckets)-1]
}
