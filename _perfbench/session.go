package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uavdc/internal/obs"
	"uavdc/internal/oplog"
	"uavdc/internal/serve"
)

// sessionConfig sizes one daemon instance and its clients.
type sessionConfig struct {
	workers, cacheSize, clients int
	// traced parses the daemon's op-log and stamps each response with
	// the handler's times.
	traced bool
}

// session is a serve.Server behind serve.Server.Handler on a loopback
// listener the benchmark owns, plus a keep-alive client with at most
// cfg.clients connections. close shuts it down and waits for everything
// it started.
type session struct {
	cfg    sessionConfig
	srv    *serve.Server
	reg    *obs.Registry
	hs     *http.Server
	served chan error
	addr   string
	url    string
	tr     *http.Transport
	client *http.Client
	oplog  *oplogSink
}

func openSession(cfg sessionConfig) (*session, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &session{cfg: cfg, reg: obs.NewRegistry(), oplog: &oplogSink{parse: cfg.traced}, served: make(chan error, 1)}
	scfg := serve.Config{
		CacheSize: cfg.cacheSize,
		Workers:   cfg.workers,
		Obs:       s.reg,
		OpLog:     s.oplog,
		// Sized so no record is dropped and the record count can be
		// checked against the request count.
		OpLogBuffer: 1 << 16,
	}
	s.srv = serve.New(scfg)
	var h http.Handler = s.srv.Handler()
	if cfg.traced {
		h = stampHandler(h)
	}
	s.hs = &http.Server{Handler: h}
	s.addr = ln.Addr().String()
	s.url = "http://" + s.addr + "/plan"
	go func() { s.served <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{
		MaxIdleConnsPerHost: cfg.clients,
		MaxConnsPerHost:     cfg.clients,
		DisableCompression:  true,
	}
	s.client = &http.Client{Transport: s.tr}
	return s, nil
}

// close stops accepting connections and waits for the open ones
// (http.Server.Shutdown), then drains the daemon with no deadline
// (serve.Server.Close), so every flight lands and the op-log flushes.
func (s *session) close() error {
	err := s.hs.Shutdown(context.Background())
	if e := <-s.served; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	s.tr.CloseIdleConnections()
	return errors.Join(err, s.srv.Close(context.Background()))
}

// Traced sessions stamp two handler times on every response, in
// microseconds: reading the request body off the connection, and the
// whole handler up to the moment it writes the status line.
const (
	bodyHeader    = "Perfbench-Body-Us"
	handlerHeader = "Perfbench-Handler-Us"
)

// stampHandler wraps h for traced sessions. It reads the request body
// into memory before h runs, so the daemon's JSON decode is timed apart
// from the network transfer it would otherwise overlap.
func stampHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		w.Header().Set(bodyHeader, strconv.FormatInt(time.Since(start).Microseconds(), 10))
		h.ServeHTTP(&stampWriter{ResponseWriter: w, start: start}, r)
	})
}

type stampWriter struct {
	http.ResponseWriter
	start time.Time
	wrote bool
}

func (w *stampWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.Header().Set(handlerHeader, strconv.FormatInt(time.Since(w.start).Microseconds(), 10))
	}
	w.ResponseWriter.WriteHeader(code)
}

// oplogSink receives the daemon's uavdc-oplog/1 stream. The op-log
// writer encodes one line per Write from its single goroutine, and
// serve.Server.Close waits for that goroutine, so the fields are read
// only after close. Untraced sessions only count lines; traced ones
// parse the queue and plan times of every miss.
type oplogSink struct {
	parse  bool
	lines  int
	byDisp map[string]int
	// The queue wait, plan time and Do time of every miss, and the Do
	// time of every hit.
	queueS, planS, doS, hitS []float64
	err                      error
}

func (o *oplogSink) Write(p []byte) (int, error) {
	o.lines++
	if o.lines == 1 || !o.parse {
		return len(p), nil
	}
	var rec oplog.Record
	if err := json.Unmarshal(p, &rec); err != nil {
		o.err = errors.Join(o.err, err)
		return len(p), nil
	}
	if o.byDisp == nil {
		o.byDisp = map[string]int{}
	}
	o.byDisp[rec.Disp]++
	switch rec.Disp {
	case oplog.DispHit:
		o.hitS = append(o.hitS, rec.ElapsedS)
	case oplog.DispMiss:
		o.queueS = append(o.queueS, rec.QueueS)
		o.planS = append(o.planS, rec.PlanS)
		o.doS = append(o.doS, rec.ElapsedS)
	}
	return len(p), nil
}

// recordCount is the number of op-log records (every line after the
// header).
func (o *oplogSink) recordCount() int { return max(o.lines-1, 0) }

// op is one completed request as the client saw it.
type op struct {
	idx     int
	end     time.Duration // completion, from the start of the load
	rt      time.Duration // client round trip
	elapsed time.Duration // serve.Server.Do time, from Uavdc-Elapsed-Us
	body    time.Duration // handler's request-body read (traced only)
	handler time.Duration // handler entry to status line (traced only)
	decode  time.Duration // replayed JSON decode of the body (traced only)
	cache   string
	ok      bool
}

// loadSpec is one closed-loop load: each client sends its next request
// only after the previous reply has been read and checked.
type loadSpec struct {
	clients int
	// next returns the index of client c's next request.
	next func(c int) int
	// count > 0 stops after that many requests in total; otherwise the
	// load runs for dur.
	count int
	dur   time.Duration
	// replay (traced runs) re-times the JSON decode and Request.Key of
	// every body after its reply, outside the round trip.
	replay bool
}

// load runs spec against the session and checks every reply against its
// reference body. It returns every op (failed ones with ok false) and,
// for replayed loads, the decode/key samples.
func (s *session) load(ctx context.Context, reqs []request, spec loadSpec) ([]op, *layerStats, error) {
	var (
		wg     sync.WaitGroup
		issued atomic.Int64
		perOps = make([][]op, spec.clients)
		perLay = make([]*layerStats, spec.clients)
		errs   = make([]error, spec.clients)
		start  = time.Now()
	)
	for c := 0; c < spec.clients; c++ {
		perLay[c] = newLayerStats()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := make([]op, 0, 1<<12)
			for ctx.Err() == nil {
				if spec.count > 0 {
					if issued.Add(1) > int64(spec.count) {
						break
					}
				} else if time.Since(start) >= spec.dur {
					break
				}
				i := spec.next(c)
				o, err := s.post(ctx, reqs[i].body, start)
				if err != nil {
					errs[c] = err
					break
				}
				o.idx = i
				o.ok = o.ok && bytes.Equal(o.body, reqs[i].expected)
				if spec.replay {
					o.decode = replay(reqs[i].body, perLay[c])
				}
				ops = append(ops, o.op)
			}
			perOps[c] = ops
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var all []op
	lay := newLayerStats()
	for c := range perOps {
		all = append(all, perOps[c]...)
		for name, xs := range perLay[c].samples {
			lay.samples[name] = append(lay.samples[name], xs...)
		}
	}
	return all, lay, errors.Join(errs...)
}

type reply struct {
	op
	body []byte
}

// post sends one request and reads the whole reply.
func (s *session) post(ctx context.Context, body []byte, epoch time.Time) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("post: %w", err)
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing is lost by a close error
	now := time.Now()
	if err != nil {
		return reply{}, fmt.Errorf("read reply: %w", err)
	}
	us, _ := strconv.ParseInt(resp.Header.Get("Uavdc-Elapsed-Us"), 10, 64)
	hus, _ := strconv.ParseInt(resp.Header.Get(handlerHeader), 10, 64)
	bus, _ := strconv.ParseInt(resp.Header.Get(bodyHeader), 10, 64)
	return reply{body: b, op: op{
		end:     now.Sub(epoch),
		rt:      now.Sub(t0),
		elapsed: time.Duration(us) * time.Microsecond,
		body:    time.Duration(bus) * time.Microsecond,
		handler: time.Duration(hus) * time.Microsecond,
		cache:   resp.Header.Get("Uavdc-Cache"),
		ok:      resp.StatusCode == http.StatusOK,
	}}, nil
}

// replay re-times the daemon's first two request layers on one body:
// the JSON decode (as the handler does it) and the canonical key. It
// returns the decode time.
func replay(body []byte, l *layerStats) time.Duration {
	var req serve.Request
	t := time.Now()
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	dec := time.Since(t)
	l.add("serve.decode_ms", ms(dec))
	if err != nil {
		return dec
	}
	m0 := readMem()
	t = time.Now()
	_, err = req.Key()
	d := time.Since(t)
	m1 := readMem()
	if err == nil {
		l.add("canon.key_ms", ms(d))
		l.add("canon.key_alloc_kb", float64(m1.allocBytes-m0.allocBytes)/1e3)
	}
	return dec
}

// checkCounters verifies the daemon's books after close: every request
// has exactly one disposition, and the op-log holds one record per
// request, dropped none and, when parsed, agrees with the counters on
// every disposition.
func (s *session) checkCounters(requests int) error {
	c := s.reg.Snapshot().Counters
	var errs []error
	if got := c[serve.CounterRequests]; got != int64(requests) {
		errs = append(errs, fmt.Errorf("serve.requests = %d, client sent %d", got, requests))
	}
	disp := c[serve.CounterHits] + c[serve.CounterMisses] + c[serve.CounterCoalesced] + c[serve.CounterRejected]
	if disp != c[serve.CounterRequests] {
		errs = append(errs, fmt.Errorf("hits+misses+coalesced+rejected = %d, requests = %d", disp, c[serve.CounterRequests]))
	}
	if got := s.oplog.recordCount(); got != requests || c[serve.CounterOplogDropped] != 0 {
		errs = append(errs, fmt.Errorf("op-log holds %d records (%d dropped) for %d requests",
			got, c[serve.CounterOplogDropped], requests))
	}
	if s.oplog.err != nil {
		errs = append(errs, fmt.Errorf("op-log: %w", s.oplog.err))
	}
	if s.cfg.traced {
		for d, name := range map[string]string{oplog.DispHit: serve.CounterHits, oplog.DispMiss: serve.CounterMisses,
			oplog.DispCoalesced: serve.CounterCoalesced, oplog.DispRejected: serve.CounterRejected} {
			if n := s.oplog.byDisp[d]; int64(n) != c[name] {
				errs = append(errs, fmt.Errorf("op-log has %d %s records, %s = %d", n, d, name, c[name]))
			}
		}
	}
	return errors.Join(errs...)
}
