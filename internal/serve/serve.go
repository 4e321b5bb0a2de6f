package serve

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"uavdc"
	"uavdc/internal/obs"
	"uavdc/internal/oplog"
	"uavdc/internal/trace"
)

// DefaultWorkers is the planner pool size a zero Config.Workers selects.
const DefaultWorkers = 4

// Config tunes a Server. The zero value selects the defaults noted on
// each field.
type Config struct {
	// CacheSize bounds the LRU plan cache in entries (default 1024), and
	// the /plan handler's body memo to as many; negative disables both.
	CacheSize int
	// Workers is the planner pool size (default DefaultWorkers).
	Workers int
	// QueueSize bounds the pending-flight queue (default 64). A full
	// queue rejects new misses with ErrBackpressure — backpressure is
	// explicit, never unbounded buffering.
	QueueSize int
	// Timeout is the per-request deadline the HTTP handler applies;
	// 0 disables it. Server.Do takes its deadline from the context, so
	// programmatic callers set their own.
	Timeout time.Duration
	// Obs receives the serve.* counters and the latency histogram
	// (default: a fresh registry, exposed on /metrics).
	Obs *obs.Registry
	// TraceWriter, when set, receives one uavdc-trace/1 JSONL span per
	// request plus the planner's phase spans for every miss.
	TraceWriter io.Writer
	// StripTimes omits wall-clock timestamps from the streamed trace,
	// making it byte-deterministic for a fixed request sequence.
	StripTimes bool
	// OpLog, when set, receives the uavdc-oplog/1 request operation log
	// through a bounded asynchronous writer: a slow sink drops records
	// (counted on serve.oplog.dropped) but never delays a request.
	OpLog io.Writer
	// OpLogBuffer bounds the op-log writer's record channel (default
	// oplog.DefaultBuffer).
	OpLogBuffer int
	// OpLogStrip zeroes the wall-clock and scheduling fields of every
	// op-log record, making the stream byte-deterministic for a fixed
	// sequential request sequence — the op-log mirror of StripTimes.
	OpLogStrip bool
	// SampleInterval runs the background window sampler every interval,
	// feeding the /debug/window ring; 0 disables it (Sample may still be
	// called manually, which is what deterministic tests do).
	SampleInterval time.Duration

	// planFn overrides the planner in tests: it receives the cache key,
	// the request, and an optional flight recorder, and returns the
	// canonical response body. nil selects uavdc.Plan + EncodeResult.
	planFn func(key string, req Request, tr *uavdc.Trace) ([]byte, error)
}

// Outcome is the result of one Server.Do call: the canonical body, the
// HTTP status it maps to, and the request-scoped envelope (cache
// disposition, key, elapsed) that travels in headers, never the body.
type Outcome struct {
	// Status is the HTTP status: 200, or 4xx/5xx with an ErrorBody.
	Status int
	// Cache is the disposition: "hit", "miss", "coalesced", or "" when
	// the request never reached the cache (bad request, rejection).
	Cache string
	// Key is the content address, when the request was valid.
	Key string
	// Body is the response body, newline-terminated JSON.
	Body []byte
	// Elapsed is the wall-clock service time (non-deterministic).
	Elapsed time.Duration
	// Seq is the request's monotonic sequence number: the op-log record
	// id and the "req" attribute of the serve/request trace span, so the
	// two streams join.
	Seq int64
}

// flight is one in-progress planner execution; all requests for its key
// wait on done and read the same body. The op-log fields (worker,
// queueS, planS, evicted) are written by the worker before done closes
// and read by waiters only after it closes.
type flight struct {
	key      string
	req      Request
	done     chan struct{}
	status   int
	body     []byte
	enqueued time.Time
	worker   int
	queueS   float64
	planS    float64
	evicted  int
}

// Server is the daemon core: cache, singleflight table, and worker pool.
// Create with New, stop with Close. Safe for concurrent use.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *lruCache[[]byte]
	// memo maps the SHA-256 digest of a /plan body that decoded and
	// keyed to its cache key, so a byte-identical repeat skips both.
	memo  *lruCache[string]
	start time.Time

	mu       sync.Mutex
	closed   bool
	inflight map[string]*flight
	queue    chan *flight
	wg       sync.WaitGroup

	stop     chan struct{}
	stopOnce sync.Once

	traceMu sync.Mutex

	reqSeq atomic.Int64
	olw    *oplog.Writer
	opRing *oplogRing
	window *windowRing

	cRequests, cHits, cMisses, cCoalesced obs.Counter
	cRejected, cTimeouts, cErrors         obs.Counter
	cPlans, cEvictions                    obs.Counter
	cOplogRecords, cOplogDropped          obs.Counter
	cWindowSamples, cBodyMemoHits         obs.Counter
	gQueueDepth                           obs.Gauge
	hLatency                              obs.Histogram
}

// New starts a server with cfg's worker pool running.
func New(cfg Config) *Server {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.planFn == nil {
		cfg.planFn = defaultPlan
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Obs,
		cache:    newLRU[[]byte](cfg.CacheSize),
		memo:     newLRU[string](cfg.CacheSize),
		start:    time.Now(), //uavdc:allow nodeterminism health uptime is reported wall time, excluded from determinism comparisons
		inflight: make(map[string]*flight),
		queue:    make(chan *flight, cfg.QueueSize),
		stop:     make(chan struct{}),
		opRing:   newOplogRing(oplogRingSize),
		window:   newWindowRing(windowRingSize, cfg.SampleInterval),

		cRequests:      cfg.Obs.Counter(CounterRequests),
		cHits:          cfg.Obs.Counter(CounterHits),
		cMisses:        cfg.Obs.Counter(CounterMisses),
		cCoalesced:     cfg.Obs.Counter(CounterCoalesced),
		cRejected:      cfg.Obs.Counter(CounterRejected),
		cTimeouts:      cfg.Obs.Counter(CounterTimeouts),
		cErrors:        cfg.Obs.Counter(CounterErrors),
		cPlans:         cfg.Obs.Counter(CounterPlans),
		cEvictions:     cfg.Obs.Counter(CounterEvictions),
		cOplogRecords:  cfg.Obs.Counter(CounterOplogRecords),
		cOplogDropped:  cfg.Obs.Counter(CounterOplogDropped),
		cWindowSamples: cfg.Obs.Counter(CounterWindowSamples),
		cBodyMemoHits:  cfg.Obs.Counter(CounterBodyMemoHits),
		gQueueDepth:    cfg.Obs.Gauge(GaugeQueueDepth),
		hLatency:       cfg.Obs.Histogram(HistLatency, latencyBuckets),
	}
	if cfg.OpLog != nil {
		s.olw = oplog.NewWriter(cfg.OpLog, cfg.OpLogBuffer, cfg.OpLogStrip)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i + 1)
	}
	if cfg.SampleInterval > 0 {
		// Close waits on wg, so no sample lands after it returns.
		s.wg.Add(1)
		go s.sampler(cfg.SampleInterval)
	}
	return s
}

// defaultPlan is the production planner: uavdc.Plan plus the canonical
// response encoding.
func defaultPlan(key string, req Request, tr *uavdc.Trace) ([]byte, error) {
	opts := req.Options.Options()
	opts.Trace = tr
	res, err := uavdc.Plan(req.Scenario.Scenario(), req.UAV.UAV(), opts)
	if err != nil {
		return nil, err
	}
	return EncodeResult(key, res)
}

// Do services one request: cache lookup, in-flight coalescing, or a new
// planner flight through the worker queue. The context bounds how long
// the caller waits; an expired deadline abandons the wait but never the
// flight, which still lands and fills the cache.
func (s *Server) Do(ctx context.Context, req Request) Outcome {
	start := time.Now() //uavdc:allow nodeterminism request latency is reported wall time, excluded from determinism comparisons
	s.cRequests.Inc()
	out, f := s.do(ctx, req)
	return s.finish(start, out, f)
}

// doCached is Do for a request whose key the body memo supplied: when the
// plan cache still holds the key, it serves and accounts the hit exactly
// as Do would. Otherwise it touches nothing and reports false, and the
// caller decodes the body and calls Do.
func (s *Server) doCached(key string) (Outcome, bool) {
	start := time.Now() //uavdc:allow nodeterminism request latency is reported wall time, excluded from determinism comparisons
	body, ok := s.cache.Get(key)
	if !ok {
		return Outcome{}, false
	}
	s.cRequests.Inc()
	s.cBodyMemoHits.Inc()
	return s.finish(start, s.hit(key, body), nil), true
}

// finish is the accounting every served request ends with: its sequence
// number, latency, trace span and op-log record.
func (s *Server) finish(start time.Time, out Outcome, f *flight) Outcome {
	out.Seq = s.reqSeq.Add(1)
	out.Elapsed = time.Since(start) //uavdc:allow nodeterminism request latency is reported wall time, excluded from determinism comparisons
	s.hLatency.Observe(out.Elapsed.Seconds())
	s.streamSpan(out)
	s.logRequest(out, f)
	return out
}

// hit counts a plan-cache hit and returns its outcome.
func (s *Server) hit(key string, body []byte) Outcome {
	s.cHits.Inc()
	return Outcome{Status: 200, Cache: "hit", Key: key, Body: body}
}

func (s *Server) do(ctx context.Context, req Request) (Outcome, *flight) {
	key, err := req.Key()
	if err != nil {
		return Outcome{Status: 400, Body: encodeError(ErrBadRequest, err.Error())}, nil
	}
	if body, ok := s.cache.Get(key); ok {
		return s.hit(key, body), nil
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.cRejected.Inc()
		return Outcome{Status: 503, Key: key, Body: encodeError(ErrShuttingDown, "server is draining")}, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.cCoalesced.Inc()
		return s.wait(ctx, f, "coalesced"), f
	}
	// The flight may have landed between the cache miss and taking the
	// lock; re-check so a just-cached plan is not computed twice.
	if body, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		return s.hit(key, body), nil
	}
	f := &flight{key: key, req: req, done: make(chan struct{}),
		enqueued: time.Now()} //uavdc:allow nodeterminism queue-wait is reported wall time, stripped from deterministic op-logs
	select {
	case s.queue <- f:
		s.inflight[key] = f
		s.mu.Unlock()
		s.cMisses.Inc()
		return s.wait(ctx, f, "miss"), f
	default:
		s.mu.Unlock()
		s.cRejected.Inc()
		return Outcome{Status: 503, Key: key, Body: encodeError(ErrBackpressure,
			fmt.Sprintf("queue full (%d pending)", s.cfg.QueueSize))}, nil
	}
}

// wait blocks until the flight lands or the context expires.
func (s *Server) wait(ctx context.Context, f *flight, disp string) Outcome {
	select {
	case <-f.done:
		return Outcome{Status: f.status, Cache: disp, Key: f.key, Body: f.body}
	case <-ctx.Done():
		s.cTimeouts.Inc()
		return Outcome{Status: 504, Cache: disp, Key: f.key,
			Body: encodeError(ErrTimeout, "deadline expired before the plan landed; it keeps computing and will be cached")}
	}
}

// worker drains the flight queue until Close closes it. Worker ids are
// 1-based; 0 in an op-log record means no worker was involved.
func (s *Server) worker(id int) {
	defer s.wg.Done()
	for f := range s.queue {
		s.runFlight(f, id)
	}
}

// runFlight executes one planner flight and publishes its body. Every
// op-log field is written before done closes, so waiters reading them
// after the close race nothing.
func (s *Server) runFlight(f *flight, workerID int) {
	f.worker = workerID
	f.queueS = time.Since(f.enqueued).Seconds() //uavdc:allow nodeterminism queue-wait is reported wall time, stripped from deterministic op-logs
	var tr *uavdc.Trace
	if s.cfg.TraceWriter != nil {
		tr = uavdc.NewTrace()
	}
	s.cPlans.Inc()
	planStart := time.Now() //uavdc:allow nodeterminism plan wall time is reported, stripped from deterministic op-logs
	body, err := s.cfg.planFn(f.key, f.req, tr)
	f.planS = time.Since(planStart).Seconds() //uavdc:allow nodeterminism plan wall time is reported, stripped from deterministic op-logs
	if err != nil {
		s.cErrors.Inc()
		f.status, f.body = 500, encodeError(ErrPlanFailed, err.Error())
	} else {
		f.status, f.body = 200, body
		f.evicted = s.cache.Put(f.key, body)
		s.cEvictions.Add(int64(f.evicted))
	}
	// The plan's phase spans are streamed before the flight completes, so
	// a caller that sees the response also sees its trace.
	s.streamPlanTrace(tr)
	s.mu.Lock()
	delete(s.inflight, f.key)
	s.mu.Unlock()
	close(f.done)
}

// disposition maps an outcome to its op-log disposition: failure
// statuses first, the cache disposition otherwise.
func disposition(out Outcome) string {
	switch {
	case out.Status == 503:
		return oplog.DispRejected
	case out.Status == 504:
		return oplog.DispTimeout
	case out.Status != 200:
		return oplog.DispError
	default:
		return out.Cache
	}
}

// logRequest feeds one completed request into the op-log ring and, when
// configured, the async op-log writer. Flight-scoped fields (worker,
// queue wait, plan time, evictions) are read only when the flight has
// landed — a timed-out waiter's flight is still running and its record
// carries none of them.
func (s *Server) logRequest(out Outcome, f *flight) {
	rec := oplog.Record{
		Seq:      out.Seq,
		Key:      out.Key,
		Disp:     disposition(out),
		Status:   out.Status,
		ElapsedS: out.Elapsed.Seconds(),
		CacheLen: s.cache.Len(),
	}
	if f != nil && out.Status != 504 {
		rec.QueueS, rec.PlanS, rec.Worker = f.queueS, f.planS, f.worker
		if out.Cache == "miss" {
			// The eviction is attributed once, to the flight's opener,
			// not to every coalesced waiter.
			rec.Evicted = f.evicted
		}
	}
	s.opRing.add(rec)
	if s.olw == nil {
		return
	}
	if s.olw.Record(rec) {
		s.cOplogRecords.Inc()
	} else {
		s.cOplogDropped.Inc()
	}
}

// streamSpan appends the request's serve/request span to the trace
// writer, one contiguous JSONL block per request.
func (s *Server) streamSpan(out Outcome) {
	if s.cfg.TraceWriter == nil {
		return
	}
	buf := trace.NewBuffer()
	end := buf.Begin(SpanRequest, trace.Str("key", out.Key), trace.Int("req", int(out.Seq)))
	end(trace.Str("cache", out.Cache), trace.Int("status", out.Status))
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	// An unwritable trace writer must not fail requests; the error is
	// deliberately dropped after the write attempt.
	_ = trace.WriteJSONL(s.cfg.TraceWriter, buf.Snapshot(), s.cfg.StripTimes)
}

// streamPlanTrace appends the planner's own phase spans for a miss.
func (s *Server) streamPlanTrace(tr *uavdc.Trace) {
	if tr == nil || s.cfg.TraceWriter == nil {
		return
	}
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	_ = tr.WriteJSONL(s.cfg.TraceWriter, s.cfg.StripTimes)
}

// QueueDepth returns the number of flights waiting for a worker.
func (s *Server) QueueDepth() int { return len(s.queue) }

// CacheLen returns the number of cached plans.
func (s *Server) CacheLen() int { return s.cache.Len() }

// Snapshot returns the current obs totals.
func (s *Server) Snapshot() obs.Snapshot { return s.reg.Snapshot() }

// WriteMetrics renders the /metrics text: the obs snapshot's sorted
// "name value" lines. The queue-depth gauge is refreshed just before the
// snapshot so the rendered level is current.
func (s *Server) WriteMetrics(w io.Writer) error {
	s.gQueueDepth.Set(int64(s.QueueDepth()))
	_, err := s.reg.Snapshot().WriteTo(w)
	return err
}

// Close drains the server: new requests are rejected with
// ErrShuttingDown (cache hits are still served, and still logged), the
// background sampler stops, queued flights land, their waiters get
// responses, and the op-log writer flushes. It returns when the pool has
// drained and the op-log closed, or the context expires.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		// Only the transitioning Close touches the op-log writer: a
		// concurrent second Close must not stop it while the first is
		// still draining flights that will log.
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		if s.olw != nil {
			return s.olw.Close(ctx)
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}
