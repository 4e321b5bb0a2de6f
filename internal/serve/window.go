package serve

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"uavdc/internal/obs"
	"uavdc/internal/oplog"
	"uavdc/internal/wire"
)

// WindowSchema tags the /debug/window JSON body.
const WindowSchema = wire.Window

// RuntimeSchema tags the /debug/runtime JSON body.
const RuntimeSchema = wire.Runtime

// HealthSchema tags the /healthz JSON body.
const HealthSchema = wire.Health

// oplogRingSize bounds the in-memory op-log ring behind /debug/oplog:
// enough recent history for a live tail, small enough to never matter.
const oplogRingSize = 256

// windowRingSize bounds the /debug/window sample ring: ten minutes at a
// one-second interval.
const windowRingSize = 600

// windowSample is one cumulative reading of the server's counters plus
// the instantaneous queue depth; window statistics are deltas between
// two samples, so the ring stores running totals, not rates.
type windowSample struct {
	queue    int
	requests int64
	hits     int64
	misses   int64
	rejected int64
	latency  obs.HistStat
}

// ring is a fixed-size buffer of the most recently added values, safe
// for concurrent use. Readers lock mu and read through held and back.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	total int // values ever added
}

func (r *ring[T]) add(v T) {
	r.mu.Lock()
	r.buf[r.total%len(r.buf)] = v
	r.total++
	r.mu.Unlock()
}

// held returns the number of retained values. The caller holds mu.
func (r *ring[T]) held() int { return min(r.total, len(r.buf)) }

// back returns the value i slots before the newest (0 is the newest),
// for 0 <= i < held(). The caller holds mu.
func (r *ring[T]) back(i int) T { return r.buf[(r.total-1-i)%len(r.buf)] }

// windowRing is a ring of samples taken at a nominal interval.
// Statistics over "the last s seconds" subtract the sample s/interval
// slots back from the newest one.
type windowRing struct {
	ring[windowSample]
	interval time.Duration
}

func newWindowRing(size int, interval time.Duration) *windowRing {
	if interval <= 0 {
		interval = time.Second
	}
	return &windowRing{ring: ring[windowSample]{buf: make([]windowSample, size)}, interval: interval}
}

// last returns the newest sample and the sample n slots earlier (clamped
// to the oldest retained), plus the number of intervals between them.
func (r *windowRing) last(n int) (newest, oldest windowSample, span, have int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	have = r.held()
	if have == 0 {
		return windowSample{}, windowSample{}, 0, 0
	}
	n = max(0, min(n, have-1))
	return r.back(0), r.back(n), n, have
}

// WindowStats is the /debug/window JSON body: load, cache behaviour, and
// latency quantiles over the trailing window, computed as the delta
// between the newest sample and the one window_s earlier. Quantiles are
// bucket-interpolated from the serve.latency.seconds histogram delta.
type WindowStats struct {
	Schema string `json:"schema"`
	// WindowS is the span actually covered — shorter than requested when
	// the ring holds fewer samples.
	WindowS float64 `json:"window_s"`
	// Samples is the number of samples currently retained in the ring.
	Samples  int   `json:"samples"`
	Requests int64 `json:"requests"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Rejected int64 `json:"rejected"`
	// HitRatio is hits over requests within the window, 0 when idle.
	HitRatio float64 `json:"hit_ratio"`
	// RejectionRate is rejections over requests within the window.
	RejectionRate float64 `json:"rejection_rate"`
	QueueNow      int     `json:"queue_now"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP90Ms  float64 `json:"latency_p90_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
}

// Sample takes one window sample: the obs counter totals, the latency
// histogram, and the instantaneous queue depth (also refreshed on the
// serve.queue_depth gauge). The background sampler calls this on its
// interval; deterministic tests call it directly.
func (s *Server) Sample() {
	depth := s.QueueDepth()
	s.gQueueDepth.Set(int64(depth))
	s.cWindowSamples.Inc()
	snap := s.reg.Snapshot()
	s.window.add(windowSample{
		queue:    depth,
		requests: snap.Counters[CounterRequests],
		hits:     snap.Counters[CounterHits],
		misses:   snap.Counters[CounterMisses],
		rejected: snap.Counters[CounterRejected],
		latency:  snap.Hists[HistLatency],
	})
}

// sampler drives Sample on the configured interval until Close.
func (s *Server) sampler(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Sample()
		case <-s.stop:
			return
		}
	}
}

// WindowStats computes the trailing-window statistics for the requested
// span. The covered span is clamped to the samples actually retained; a
// ring with fewer than two samples reports only the instantaneous queue
// depth.
func (s *Server) WindowStats(window time.Duration) WindowStats {
	interval := s.window.interval
	n := int(window / interval)
	if n < 1 {
		n = 1
	}
	newest, oldest, span, have := s.window.last(n)
	st := WindowStats{
		Schema:   WindowSchema,
		Samples:  have,
		QueueNow: s.QueueDepth(),
	}
	if span == 0 {
		return st
	}
	st.WindowS = (time.Duration(span) * interval).Seconds()
	st.Requests = newest.requests - oldest.requests
	st.Hits = newest.hits - oldest.hits
	st.Misses = newest.misses - oldest.misses
	st.Rejected = newest.rejected - oldest.rejected
	if st.Requests > 0 {
		st.HitRatio = float64(st.Hits) / float64(st.Requests)
		st.RejectionRate = float64(st.Rejected) / float64(st.Requests)
	}
	lat := newest.latency.Sub(oldest.latency)
	st.LatencyP50Ms = lat.Quantile(0.50) * 1e3
	st.LatencyP90Ms = lat.Quantile(0.90) * 1e3
	st.LatencyP99Ms = lat.Quantile(0.99) * 1e3
	return st
}

// RuntimeStats is the /debug/runtime JSON body: a point-in-time reading
// of the Go runtime — heap, GC pauses, goroutine count.
type RuntimeStats struct {
	Schema         string  `json:"schema"`
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	HeapObjects    uint64  `json:"heap_objects"`
	GCRuns         uint32  `json:"gc_runs"`
	GCPauseTotalMs float64 `json:"gc_pause_total_ms"`
	LastGCPauseMs  float64 `json:"last_gc_pause_ms"`
	NextGCBytes    uint64  `json:"next_gc_bytes"`
}

// ReadRuntimeStats samples the Go runtime.
func ReadRuntimeStats() RuntimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st := RuntimeStats{
		Schema:         RuntimeSchema,
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: m.HeapAlloc,
		HeapSysBytes:   m.HeapSys,
		HeapObjects:    m.HeapObjects,
		GCRuns:         m.NumGC,
		GCPauseTotalMs: float64(m.PauseTotalNs) / 1e6,
		NextGCBytes:    m.NextGC,
	}
	if m.NumGC > 0 {
		st.LastGCPauseMs = float64(m.PauseNs[(m.NumGC+255)%256]) / 1e6
	}
	return st
}

// Health is the /healthz JSON body: enough for a load balancer (or
// uavobs tail) to distinguish draining from healthy without scraping
// /metrics.
type Health struct {
	Schema string `json:"schema"`
	// Status is "ok" or "draining"; the endpoint always answers 200 —
	// drain state is data, not liveness.
	Status     string  `json:"status"`
	UptimeS    float64 `json:"uptime_s"`
	Draining   bool    `json:"draining"`
	CacheLen   int     `json:"cache_len"`
	QueueDepth int     `json:"queue_depth"`
}

// Health reports the server's liveness envelope.
func (s *Server) Health() Health {
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	return Health{
		Schema:     HealthSchema,
		Status:     status,
		UptimeS:    time.Since(s.start).Seconds(), //uavdc:allow nodeterminism health uptime is reported wall time, excluded from determinism comparisons
		Draining:   draining,
		CacheLen:   s.CacheLen(),
		QueueDepth: s.QueueDepth(),
	}
}

// oplogRing retains the most recent op-log records in memory for the
// /debug/oplog endpoint, independent of whether a durable op-log sink is
// configured — a live tail needs no restart.
type oplogRing struct {
	ring[oplog.Record]
}

func newOplogRing(size int) *oplogRing {
	return &oplogRing{ring[oplog.Record]{buf: make([]oplog.Record, size)}}
}

// since returns the retained records with sequence numbers greater than
// after, in ascending sequence order. Concurrent requests complete (and
// ring) out of sequence order, so the slice is sorted before returning.
func (r *oplogRing) since(after int64) []oplog.Record {
	r.mu.Lock()
	have := r.held()
	out := make([]oplog.Record, 0, have)
	for i := have - 1; i >= 0; i-- {
		if rec := r.back(i); rec.Seq > after {
			out = append(out, rec)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// OpLogSince returns the in-memory op-log records with Seq > after,
// ascending — the /debug/oplog contract.
func (s *Server) OpLogSince(after int64) []oplog.Record {
	return s.opRing.since(after)
}
