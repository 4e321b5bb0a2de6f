package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"uavdc"
	"uavdc/internal/serve"
)

// servingWorkload is a closed-loop load against the daemon over HTTP.
type servingWorkload struct {
	name string
	f    field
	reqs []request
	sess sessionConfig
	// warmAll plans every distinct request once during set-up, so the
	// window sees only hits.
	warmAll bool
	// allHits makes any non-hit in the window a correctness failure.
	allHits bool
	// warmup is the number of unmeasured requests per client in set-up.
	warmup int
	// sequence returns a fresh request-index source for one session.
	sequence func() func(c int) int
}

// runHitHeavy is the daemon's read path at paper scale: one keep-alive
// client cycling over a few distinct PaperTight requests that set-up
// already planned, so every measured request is a cache hit.
func runHitHeavy(ctx context.Context, cfg config) (*result, error) {
	f := cfg.scale.paper
	scs := f.scenarios(cfg.seed, "hit-heavy", cfg.scale.hitDistinct)
	// The two fast planners keep set-up short; the window never plans.
	reqs, err := buildRequests(f, scs, []uavdc.Algorithm{uavdc.AlgorithmNoOverlap, uavdc.AlgorithmGreedy})
	if err != nil {
		return nil, err
	}
	if err := planReferences(reqs); err != nil {
		return nil, err
	}
	w := servingWorkload{
		name: "hit-heavy", f: f, reqs: reqs,
		sess:    sessionConfig{workers: 1, cacheSize: 1024, clients: 1},
		warmAll: true, allHits: true, warmup: cfg.scale.hitWarmup,
		sequence: func() func(int) int {
			var n int
			return func(int) int { n++; return n % len(reqs) }
		},
	}
	return w.run(ctx, cfg)
}

// runMissChurn is the daemon's write path at reduced scale: two clients
// share one skewed request stream over more keys than the LRU holds, so
// misses, hits, coalesced waits and evictions all occur.
func runMissChurn(ctx context.Context, cfg config) (*result, error) {
	f := cfg.scale.reduced
	n := cfg.scale.churnDistinct
	scs := f.scenarios(cfg.seed, "miss-churn", n)
	reqs, err := buildRequests(f, scs, []uavdc.Algorithm{uavdc.AlgorithmPartial})
	if err != nil {
		return nil, err
	}
	if err := planReferences(reqs); err != nil {
		return nil, err
	}
	// One Zipf-distributed stream shared by both clients: consecutive
	// repeats of an uncached key land on both connections at once and
	// coalesce.
	r := rand.New(rand.NewPCG(cfg.seed, streamID("miss-churn/sequence")))
	z := rand.NewZipf(r, cfg.scale.churnSkew, 1, uint64(n-1))
	seq := make([]int, 1<<14)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	w := servingWorkload{
		name: "miss-churn", f: f, reqs: reqs,
		sess:   sessionConfig{workers: 2, cacheSize: cfg.scale.churnCache, clients: 2},
		warmup: cfg.scale.churnWarmup,
		sequence: func() func(int) int {
			var cursor atomic.Int64
			return func(int) int { return seq[int(cursor.Add(1)-1)%len(seq)] }
		},
	}
	return w.run(ctx, cfg)
}

// setup opens a session and brings it to steady state: every distinct
// request planned once (warmAll), then the unmeasured warm-up requests.
func (w *servingWorkload) setup(ctx context.Context, cfg config, traced bool, next func(int) int) (*session, int, error) {
	sc := w.sess
	sc.traced = traced
	s, err := openSession(sc)
	if err != nil {
		return nil, 0, err
	}
	sent := 0
	if w.warmAll {
		var i int
		ops, _, err := s.load(ctx, w.reqs, loadSpec{clients: 1, count: len(w.reqs), next: func(int) int { i++; return i - 1 }})
		sent += len(ops)
		if err == nil && failures(ops) > 0 {
			err = fmt.Errorf("%d set-up requests failed", failures(ops))
		}
		if err != nil {
			return nil, 0, joinClose(s, err)
		}
	}
	ops, _, err := s.load(ctx, w.reqs, loadSpec{clients: sc.clients, count: w.warmup * sc.clients, next: next})
	sent += len(ops)
	if err == nil && failures(ops) > 0 {
		err = fmt.Errorf("%d warm-up requests failed", failures(ops))
	}
	if err != nil {
		return nil, 0, joinClose(s, err)
	}
	return s, sent, nil
}

func joinClose(s *session, err error) error {
	if cerr := s.close(); cerr != nil {
		return fmt.Errorf("%w (close: %v)", err, cerr)
	}
	return err
}

func failures(ops []op) int {
	n := 0
	for _, o := range ops {
		if !o.ok {
			n++
		}
	}
	return n
}

// windowed is the set-up plus window of one session.
type windowed struct {
	sess    *session
	sent    int // requests before the window
	ops     []op
	lay     *layerStats
	before  map[string]int64 // daemon counters when the window opened
	elapsed time.Duration
	mem     memStats // allocation and GC deltas over the window
}

// measure sets up (reps times, keeping the last session), runs the
// window and checks every reply. The caller closes w.sess.
func (w *servingWorkload) measure(ctx context.Context, cfg config, dur time.Duration, traced bool, reps int) (*windowed, float64, error) {
	type live struct {
		s    *session
		next func(int) int
		sent int
	}
	l, setupS, err := timeSetup(reps, func() (live, error) {
		next := w.sequence()
		s, sent, err := w.setup(ctx, cfg, traced, next)
		return live{s, next, sent}, err
	}, func(l live) error { return l.s.close() })
	if err != nil {
		return nil, 0, err
	}
	before := l.s.reg.Snapshot().Counters
	m0 := readMem()
	start := time.Now()
	ops, lay, err := l.s.load(ctx, w.reqs, loadSpec{clients: w.sess.clients, dur: dur, next: l.next, replay: traced})
	elapsed := time.Since(start)
	m1 := readMem()
	res := &windowed{sess: l.s, sent: l.sent, ops: ops, lay: lay, elapsed: elapsed, before: before,
		mem: memStats{allocBytes: m1.allocBytes - m0.allocBytes, gcCycles: m1.gcCycles - m0.gcCycles}}
	if err != nil {
		return res, 0, joinClose(l.s, err)
	}
	return res, setupS, nil
}

// run measures the workload: end-to-end metrics with every instrument
// off, or, traced, an untraced and a traced half window plus a layer
// pass for the per-layer metrics.
func (w *servingWorkload) run(ctx context.Context, cfg config) (*result, error) {
	r := newResult()
	if cfg.traced {
		return r, w.runTraced(ctx, cfg, r)
	}
	win, setupS, err := w.measure(ctx, cfg, cfg.window, false, cfg.scale.setupReps)
	if err != nil {
		return nil, err
	}
	w.check(cfg, win, r)
	st := sliceStats(win.ops, cfg.window, cfg.scale.slices)
	fmt.Fprintf(cfg.log, "perfbench: %s: %d ops in %.2fs, %d per slice at least (p90 needs 100)\n",
		w.name, len(win.ops), win.elapsed.Seconds(), st.minSamples)
	r.set("throughput_ops", st.throughput, "ops/s")
	r.set("latency_p50_ms", st.p50, "ms")
	r.set("latency_p90_ms", st.p90, "ms")
	r.set("collected_mb", w.collectedMB(), "MB")
	r.set("alloc_kb_per_op", float64(win.mem.allocBytes)/float64(max(len(win.ops), 1))/1e3, "KB")
	r.set("setup_s", setupS, "s")
	// The per-op records go before the heap is read: live_heap_mb is the
	// daemon's state, not the size of the benchmark's own log.
	n := len(win.ops)
	win.ops = nil
	r.set("live_heap_mb", liveHeapMiB(), "MiB")
	if err := win.sess.close(); err != nil {
		return nil, err
	}
	if err := win.sess.checkCounters(win.sent + n); err != nil {
		r.fail(cfg.log, "%s: %v", w.name, err)
	}
	return r, nil
}

// check counts failed replies and, for hit-only workloads, non-hits.
func (w *servingWorkload) check(cfg config, win *windowed, r *result) {
	r.Attempted += len(win.ops)
	for _, o := range win.ops {
		if !o.ok {
			r.Failed++
		} else if w.allHits && o.cache != "hit" {
			r.fail(cfg.log, "%s: request %d was a %q, want a cache hit", w.name, o.idx, o.cache)
		}
	}
	if r.Failed > 0 {
		r.fail(cfg.log, "%s: %d of %d replies were not 200 with the reference body", w.name, r.Failed, len(win.ops))
	}
}

// collectedMB is the mean collected volume over the distinct requests,
// which the byte-compared replies carry unchanged.
func (w *servingWorkload) collectedMB() float64 {
	var s float64
	for _, q := range w.reqs {
		s += q.result.CollectedMB
	}
	return s / float64(len(w.reqs))
}

// runTraced measures tracing overhead (median round trip of a traced
// half window against an untraced one) and the per-layer metrics.
func (w *servingWorkload) runTraced(ctx context.Context, cfg config, r *result) error {
	half := cfg.window / 2
	plain, _, err := w.measure(ctx, cfg, half, false, 1)
	if err != nil {
		return err
	}
	w.check(cfg, plain, r)
	basis := medianRT(plain.ops)
	n := len(plain.ops)
	plain.ops = nil
	if err := plain.sess.close(); err != nil {
		return err
	}
	if err := plain.sess.checkCounters(plain.sent + n); err != nil {
		r.fail(cfg.log, "%s: %v", w.name, err)
	}

	lay, rt, err := w.tracedLayers(ctx, cfg, half, r)
	if err != nil {
		return err
	}
	lay.add("trace.overhead_frac", rt/basis-1)
	if err := layerPass(w.f, w.reqs, cfg.scale.layerScenarios, lay); err != nil {
		r.fail(cfg.log, "%s: %v", w.name, err)
	}
	lay.report(r, cfg.log)
	return nil
}

// tracedLayers runs one traced session for dur and folds its serving
// layers into a new layerStats: round-trip split, server-side Do times,
// op-log queue and plan times, cache counters and GC cycles. It also
// returns the median round trip.
func (w *servingWorkload) tracedLayers(ctx context.Context, cfg config, dur time.Duration, r *result) (*layerStats, float64, error) {
	win, _, err := w.measure(ctx, cfg, dur, true, 1)
	if err != nil {
		return nil, 0, err
	}
	w.check(cfg, win, r)
	lay := win.lay
	rt := medianRT(win.ops)
	for _, o := range win.ops {
		lay.add("serve.http_overhead_ms", ms(o.rt-o.elapsed))
	}
	// trace.coverage: the round trip splits into transport (outside the
	// handler, plus its body read), the JSON decode (the op's replay)
	// and serve.Server.Do; what else the handler spends is unattributed.
	for _, o := range win.ops {
		lay.cover(o.rt, o.rt-o.handler+o.body+o.decode+o.elapsed)
	}
	n := len(win.ops)
	after := win.sess.reg.Snapshot().Counters
	ratio := func(name string) float64 { return float64(after[name]-win.before[name]) / float64(max(n, 1)) }
	lay.add("serve.hit_ratio", ratio(serve.CounterHits))
	lay.add("serve.coalesced_ratio", ratio(serve.CounterCoalesced))
	lay.add("serve.evictions_per_op", ratio(serve.CounterEvictions))
	lay.add("serve.rejected_ratio", ratio(serve.CounterRejected))
	lay.add("gc.cycles_per_op", float64(win.mem.gcCycles)/float64(max(n, 1)))
	lay.add("serve.cache_mb", float64(win.sess.srv.CacheLen())*meanBodyBytes(w.reqs)/(1<<20))
	win.ops = nil
	if err := win.sess.close(); err != nil {
		return nil, 0, err
	}
	if err := win.sess.checkCounters(win.sent + n); err != nil {
		r.fail(cfg.log, "%s: %v", w.name, err)
	}
	for _, q := range win.sess.oplog.queueS {
		lay.add("serve.queue_wait_ms", q*1e3)
	}
	for _, p := range win.sess.oplog.planS {
		lay.add("serve.plan_ms", p*1e3)
	}
	for _, d := range win.sess.oplog.doS {
		lay.add("serve.do_miss_ms", d*1e3)
	}
	for _, d := range win.sess.oplog.hitS {
		lay.add("serve.do_hit_ms", d*1e3)
	}
	return lay, rt, nil
}

func meanBodyBytes(reqs []request) float64 {
	var s float64
	for _, q := range reqs {
		s += float64(len(q.expected))
	}
	return s / float64(len(reqs))
}

func medianRT(ops []op) float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = ms(o.rt)
	}
	return median(xs)
}

// windowStats is the summary of a window cut into equal slices.
// Interference from other tenants of the machine only ever slows a slice
// down, and it comes and goes on a scale of seconds, so each figure is
// read at the edge of the best tenth of slices: the 90th percentile of
// slice throughput and the 10th percentile of slice p50 and p90.
type windowStats struct {
	throughput, p50, p90 float64
	minSamples           int
}

func sliceStats(ops []op, window time.Duration, slices int) windowStats {
	width := window / time.Duration(slices)
	lat := make([][]float64, slices)
	for _, o := range ops {
		i := int(o.end / width)
		if i >= slices || !o.ok {
			continue // finished after the window closed
		}
		lat[i] = append(lat[i], ms(o.rt))
	}
	st := windowStats{minSamples: len(ops)}
	tp := make([]float64, slices)
	p50 := make([]float64, slices)
	p90 := make([]float64, slices)
	for i, xs := range lat {
		tp[i] = float64(len(xs)) / width.Seconds()
		p50[i] = quantile(xs, 0.5)
		p90[i] = quantile(xs, 0.9)
		st.minSamples = min(st.minSamples, len(xs))
	}
	st.throughput, st.p50, st.p90 = quantile(tp, 0.9), quantile(p50, 0.1), quantile(p90, 0.1)
	return st
}
