// Command uavserve runs planning as a service: a JSON HTTP daemon
// (uavdc-serve/1) over a content-addressed plan cache. Identical plan
// requests — same canonical instance, any field order — hash to the
// same key, so repeats are served from a bounded LRU cache, identical
// in-flight requests coalesce onto one planner execution, and a full
// worker queue rejects new misses with explicit backpressure instead of
// buffering unboundedly. Every response body is bit-identical to a
// direct uavdc.Plan call; cache disposition travels in headers.
//
// Usage:
//
//	uavserve [flags]
//
//	-addr        listen address (default 127.0.0.1:8080)
//	-cache       plan cache capacity in entries (default 1024)
//	-workers     planner worker goroutines (default 4)
//	-queue       pending-plan queue slots before backpressure (default 64)
//	-timeout     per-request deadline (default 0 = none)
//	-trace       stream uavdc-trace/1 spans (JSONL) to this file
//	-strip-times omit wall-clock fields from the streamed trace
//	-oplog       stream the uavdc-oplog/1 request op-log (JSONL) to this
//	             file (analyze with uavobs); logging is async and never
//	             backpressures planning — overflow is counted in
//	             serve.oplog.dropped, not buffered
//	-oplog-buffer op-log writer buffer in records (default 1024)
//	-oplog-strip zero the op-log's wall-clock fields (deterministic mode)
//	-sample      rolling-window sample interval feeding /debug/window
//	             (default 1s; 0 disables the sampler)
//	-smoke N     skip the listener: start the daemon on a loopback port,
//	             fire N requests at it from concurrent clients, verify
//	             every 200 body against a direct plan, then exit non-zero
//	             unless the hit rate is positive and no request failed
//	             for any reason other than backpressure
//	-preset      smoke instance preset (default reduced)
//	-distinct    smoke: distinct instances in the request mix (default 8)
//	-clients     smoke: concurrent client goroutines (default 8)
//
// Endpoints: POST /plan, GET /metrics (obs counter text), GET /healthz
// (uavdc-health/1), GET /debug/window (uavdc-window/1), GET
// /debug/runtime (uavdc-runtime/1), GET /debug/oplog (uavdc-oplog/1
// ring, ?after= for tailing).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"uavdc"
	"uavdc/internal/errw"
	"uavdc/internal/experiments"
	"uavdc/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args with its own FlagSet,
// writes to the given streams, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uavserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address")
		cache      = fs.Int("cache", 1024, "plan cache capacity in entries (negative disables)")
		workers    = fs.Int("workers", serve.DefaultWorkers, "planner worker goroutines")
		queue      = fs.Int("queue", 64, "pending-plan queue slots before backpressure")
		timeout    = fs.Duration("timeout", 0, "per-request deadline (0 = none)")
		tracePath  = fs.String("trace", "", "stream uavdc-trace/1 spans (JSONL) to this file")
		stripTimes = fs.Bool("strip-times", false, "omit wall-clock fields from the streamed trace")
		oplogPath  = fs.String("oplog", "", "stream the uavdc-oplog/1 request op-log (JSONL) to this file")
		oplogBuf   = fs.Int("oplog-buffer", 0, "op-log writer buffer in records (0 = default 1024)")
		oplogStrip = fs.Bool("oplog-strip", false, "zero the op-log's wall-clock fields")
		sample     = fs.Duration("sample", time.Second, "rolling-window sample interval (0 disables)")
		smoke      = fs.Int("smoke", 0, "loopback load smoke with this many requests, then exit")
		preset     = fs.String("preset", "reduced", "smoke preset: tiny | reduced | paper | papertight | full")
		distinct   = fs.Int("distinct", 8, "smoke: distinct instances in the request mix")
		clients    = fs.Int("clients", 8, "smoke: concurrent client goroutines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	outw, errs := errw.New(stdout), errw.New(stderr)

	cfg := serve.Config{
		CacheSize:      *cache,
		Workers:        *workers,
		QueueSize:      *queue,
		Timeout:        *timeout,
		StripTimes:     *stripTimes,
		OpLogBuffer:    *oplogBuf,
		OpLogStrip:     *oplogStrip,
		SampleInterval: *sample,
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			errs.Println("uavserve:", err)
			return 1
		}
		defer func() { _ = f.Close() }() // best-effort flush; span writes already surfaced their errors
		cfg.TraceWriter = f
	}
	if *oplogPath != "" {
		f, err := os.Create(*oplogPath)
		if err != nil {
			errs.Println("uavserve:", err)
			return 1
		}
		// Closed after serve.Close has drained the async writer (defers
		// run last-in-first-out behind the shutdown paths below).
		defer func() { _ = f.Close() }()
		cfg.OpLog = f
	}

	if *smoke > 0 {
		pcfg, err := experiments.Preset(*preset)
		if err != nil {
			errs.Println("uavserve:", err)
			return 2
		}
		if code := runSmoke(cfg, pcfg, *smoke, *distinct, *clients, outw, errs); code != 0 {
			return code
		}
		if outw.Err() != nil {
			return 1
		}
		return 0
	}

	s := serve.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		errs.Println("uavserve:", err)
		return 1
	}
	outw.Printf("uavserve listening on %s\n", ln.Addr())
	srv := &http.Server{Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	var serveWG sync.WaitGroup
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		errc <- srv.Serve(ln) // buffered: the send never blocks the drain
	}()

	select {
	case err := <-errc:
		errs.Println("uavserve:", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	outw.Println("uavserve: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		errs.Println("uavserve:", err)
		return 1
	}
	serveWG.Wait() // Serve has returned ErrServerClosed by now
	if err := s.Close(drainCtx); err != nil {
		errs.Println("uavserve:", err)
		return 1
	}
	if outw.Err() != nil {
		return 1
	}
	return 0
}

// runSmoke is the loopback load gate `make ci` runs: the daemon on an
// ephemeral port, total requests round-robined over distinct instances
// from concurrent clients through real HTTP. Every 200 body must be
// bit-identical to a direct uavdc.Plan call, backpressure (503 with the
// backpressure code) is the only tolerated failure, and the warm
// repeats must produce a positive cache hit rate.
func runSmoke(cfg serve.Config, pcfg experiments.Config, total, distinct, clients int, outw, errs *errw.Writer) int {
	if distinct <= 0 {
		distinct = 8
	}
	if total < distinct {
		total = distinct
	}
	if clients <= 0 {
		clients = 8
	}
	reqs, err := experiments.ServeRequests(pcfg, distinct)
	if err != nil {
		errs.Println("uavserve:", err)
		return 1
	}
	bodies := make([][]byte, distinct)
	payloads := make([][]byte, distinct)
	for i, r := range reqs {
		key, err := r.Key()
		if err != nil {
			errs.Println("uavserve:", err)
			return 1
		}
		res, err := uavdc.Plan(r.Scenario.Scenario(), r.UAV.UAV(), r.Options.Options())
		if err != nil {
			errs.Println("uavserve:", err)
			return 1
		}
		if bodies[i], err = serve.EncodeResult(key, res); err != nil {
			errs.Println("uavserve:", err)
			return 1
		}
		if payloads[i], err = json.Marshal(r); err != nil {
			errs.Println("uavserve:", err)
			return 1
		}
	}

	s := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		errs.Println("uavserve:", err)
		return 1
	}
	srv := &http.Server{Handler: s.Handler()}
	var serveWG sync.WaitGroup
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on the Shutdown below
	}()
	url := "http://" + ln.Addr().String() + "/plan"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}

	var (
		next, backpressured, failed atomic.Int64
		wg                          sync.WaitGroup
	)
	start := time.Now() //uavdc:allow nodeterminism smoke throughput is reported wall time
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				r := i % distinct
				resp, err := client.Post(url, "application/json", bytes.NewReader(payloads[r]))
				if err != nil {
					failed.Add(1)
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				_ = resp.Body.Close() // read errors are what matter; rerr carries them
				switch {
				case rerr != nil:
					failed.Add(1)
				case resp.StatusCode == 200:
					if !bytes.Equal(body, bodies[r]) {
						failed.Add(1)
					}
				case resp.StatusCode == 503 && bytes.Contains(body, []byte(serve.ErrBackpressure)):
					backpressured.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start) //uavdc:allow nodeterminism smoke throughput is reported wall time

	// Close the clients' idle keep-alive connections first: the server
	// counts a connection that has not yet carried a request as active for
	// its first 5 s, so Shutdown would wait out any such spare connection.
	client.CloseIdleConnections()
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		errs.Println("uavserve:", err)
		return 1
	}
	serveWG.Wait() // Serve has returned ErrServerClosed by now
	if err := s.Close(shutCtx); err != nil {
		errs.Println("uavserve:", err)
		return 1
	}

	counters := s.Snapshot().Counters
	hits := counters[serve.CounterHits]
	outw.Printf("smoke: %d requests over %d instances from %d clients in %.3f s (%.0f req/s)\n",
		total, distinct, clients, wall.Seconds(), float64(total)/wall.Seconds())
	outw.Printf("smoke: hits %d  misses %d  coalesced %d  backpressured %d  plans %d\n",
		hits, counters[serve.CounterMisses], counters[serve.CounterCoalesced],
		backpressured.Load(), counters[serve.CounterPlans])
	if n := failed.Load(); n > 0 {
		errs.Printf("uavserve: smoke failed: %d non-backpressure errors or parity mismatches\n", n)
		return 1
	}
	if hits == 0 {
		errs.Println("uavserve: smoke failed: cache hit rate is zero")
		return 1
	}
	outw.Println("smoke: ok (all bodies bit-identical to direct plans)")
	return 0
}
