package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"uavdc"
	"uavdc/internal/serve"
)

// paperInputs are paper-plan's distinct instances and the plan key of
// every (instance, planner) pair.
type paperInputs struct {
	scs  []uavdc.Scenario
	keys [][]string
}

// setupPaperPlan draws the instances and keys them. It then warms every
// planner on one fixed Reduced field, and grows the heap with one greedy
// plan of a fixed paper-scale field, so the window pays no first-call
// costs.
func setupPaperPlan(cfg config) (paperInputs, error) {
	f, warmF := cfg.scale.paper, cfg.scale.reduced
	in := paperInputs{scs: f.scenarios(cfg.seed, "paper-plan", cfg.scale.planInstances)}
	for _, sc := range in.scs {
		keys := make([]string, len(planners))
		for p, alg := range planners {
			k, err := uavdc.PlanKey(sc, f.uav(), f.options(alg))
			if err != nil {
				return in, err
			}
			keys[p] = k
		}
		in.keys = append(in.keys, keys)
	}
	warm := warmF.scenarios(0, "paper-plan/warm-up", 1)[0]
	for _, alg := range planners {
		if _, err := uavdc.Plan(warm, warmF.uav(), warmF.options(alg)); err != nil {
			return in, fmt.Errorf("warm-up %s: %w", alg, err)
		}
	}
	big := f.scenarios(0, "paper-plan/warm-up", 1)[0]
	if _, err := uavdc.Plan(big, f.uav(), f.options(uavdc.AlgorithmGreedy)); err != nil {
		return in, fmt.Errorf("warm-up: %w", err)
	}
	return in, nil
}

// runPaperPlan is the paper's own experiment at paper scale: one caller
// runs serial uavdc.Plan over the instances, each planned by the four
// planners in order. One op is one Plan call; the window runs whole
// instances until it has lasted cfg.window and seen every instance.
func runPaperPlan(ctx context.Context, cfg config) (*result, error) {
	in, setupS, err := timeSetup(cfg.scale.setupReps, func() (paperInputs, error) { return setupPaperPlan(cfg) },
		func(paperInputs) error { return nil })
	if err != nil {
		return nil, err
	}
	r := newResult()
	if cfg.traced {
		return r, tracedPaperPlan(ctx, cfg, in, r)
	}
	f := cfg.scale.paper
	m := len(in.scs)
	bodies := make([][][]byte, m)
	collected := make([][]float64, m)
	for i := range bodies {
		bodies[i] = make([][]byte, len(planners))
		collected[i] = make([]float64, len(planners))
	}
	var points []float64
	m0 := readMem()
	start := time.Now()
	for pass := 0; ; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i := pass % m
		t := time.Now()
		for p, alg := range planners {
			r.Attempted++
			res, err := uavdc.Plan(in.scs[i], f.uav(), f.options(alg))
			if err == nil {
				err = checkPlan(in.scs[i], f, res)
			}
			var body []byte
			if err == nil {
				body, err = serve.EncodeResult(in.keys[i][p], res)
			}
			if err == nil && bodies[i][p] != nil && !bytes.Equal(body, bodies[i][p]) {
				err = fmt.Errorf("result differs from the first pass")
			}
			if err != nil {
				r.Failed++
				r.fail(cfg.log, "paper-plan instance %d %s: %v", i, alg, err)
				continue
			}
			bodies[i][p], collected[i][p] = body, res.CollectedMB
		}
		points = append(points, ms(time.Since(t)))
		if time.Since(start) >= cfg.window && pass+1 >= m {
			break
		}
	}
	elapsed := time.Since(start)
	m1 := readMem()
	fmt.Fprintf(cfg.log, "perfbench: paper-plan: %d plans (%d instance passes) in %.2fs\n",
		r.Attempted, len(points), elapsed.Seconds())

	var sum float64
	for i := range collected {
		for _, v := range collected[i] {
			sum += v
		}
	}
	r.set("throughput_ops", float64(r.Attempted)/elapsed.Seconds(), "ops/s")
	// A Plan call's time depends on its planner, so latency is taken per
	// instance pass — one figure data point, all four planners.
	r.set("latency_p50_ms", quantile(points, 0.5), "ms")
	r.set("latency_p90_ms", quantile(points, 0.9), "ms")
	r.set("collected_mb", sum/float64(m*len(planners)), "MB")
	r.set("alloc_kb_per_op", float64(m1.allocBytes-m0.allocBytes)/float64(r.Attempted)/1e3, "KB")
	r.set("live_heap_mb", liveHeapMiB(), "MiB")
	r.set("setup_s", setupS, "s")
	return r, nil
}

// checkPlan checks a result against its instance: a positive volume no
// larger than the field holds, equal to the sum over stops, within the
// battery.
func checkPlan(sc uavdc.Scenario, f field, res *uavdc.Result) error {
	var stops float64
	for _, s := range res.Stops {
		stops += s.CollectedMB
	}
	switch {
	case !(res.CollectedMB > 0):
		return fmt.Errorf("collected %v MB", res.CollectedMB)
	case res.CollectedMB > sc.TotalDataMB()*(1+1e-9):
		return fmt.Errorf("collected %v MB of a %v MB field", res.CollectedMB, sc.TotalDataMB())
	case math.Abs(stops-res.CollectedMB) > 1e-6*res.CollectedMB:
		return fmt.Errorf("stops sum to %v MB, result says %v MB", stops, res.CollectedMB)
	case res.EnergyJ > f.capacityJ*(1+1e-9):
		return fmt.Errorf("energy %v J over the %v J battery", res.EnergyJ, f.capacityJ)
	}
	return nil
}

// tracedPaperPlan plans every instance once untraced through uavdc.Plan
// (the reference), then runs the window through planLayers, checking
// every traced plan's volume against the reference. Tracing overhead is
// the traced first pass against the reference pass. The serving layers,
// which paper-plan never reaches, come from a short probe session on the
// first instance.
func tracedPaperPlan(ctx context.Context, cfg config, in paperInputs, r *result) error {
	f := cfg.scale.paper
	lay := newLayerStats()
	m := len(in.scs)
	ref := make([][]*uavdc.Result, m)
	refDur := make([][]time.Duration, m)
	for i, sc := range in.scs {
		for _, alg := range planners {
			t := time.Now()
			res, err := uavdc.Plan(sc, f.uav(), f.options(alg))
			d := time.Since(t)
			if err != nil {
				return fmt.Errorf("reference plan %d %s: %w", i, alg, err)
			}
			ref[i] = append(ref[i], res)
			refDur[i] = append(refDur[i], d)
		}
	}
	var traced, untraced time.Duration
	m0 := readMem()
	start := time.Now()
	for pass := 0; ; pass++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		i := pass % m
		for p, alg := range planners {
			r.Attempted++
			got, wall, err := planLayers(f, in.scs[i], alg, lay, true)
			if err == nil && got != ref[i][p].CollectedMB {
				err = fmt.Errorf("layer-by-layer plan collected %v MB, uavdc.Plan %v MB", got, ref[i][p].CollectedMB)
			}
			if err != nil {
				r.Failed++
				r.fail(cfg.log, "paper-plan instance %d %s: %v", i, alg, err)
				continue
			}
			if pass < m {
				traced += wall
				untraced += refDur[i][p]
			}
		}
		if time.Since(start) >= cfg.window && pass+1 >= m {
			break
		}
	}
	m1 := readMem()
	lay.add("gc.cycles_per_op", float64(m1.gcCycles-m0.gcCycles)/float64(r.Attempted))
	lay.add("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	for i := range ref {
		for p, res := range ref[i] {
			t := time.Now()
			if _, err := serve.EncodeResult(in.keys[i][p], res); err == nil {
				lay.add("serve.encode_ms", ms(time.Since(t)))
			}
		}
	}
	if err := serveProbe(ctx, cfg, in.scs[:1], lay, r); err != nil {
		return err
	}
	lay.report(r, cfg.log)
	return nil
}

// serveProbe serves the first paper-plan instance (planned by the
// no-overlap planner) over HTTP for a tenth of the window and copies the
// serve.* and canon.* samples into lay.
func serveProbe(ctx context.Context, cfg config, scs []uavdc.Scenario, lay *layerStats, r *result) error {
	f := cfg.scale.paper
	reqs, err := buildRequests(f, scs, []uavdc.Algorithm{uavdc.AlgorithmNoOverlap})
	if err != nil {
		return err
	}
	if err := planReferences(reqs); err != nil {
		return err
	}
	w := servingWorkload{
		name: "paper-plan serve probe", f: f, reqs: reqs,
		sess:    sessionConfig{workers: 1, cacheSize: 1024, clients: 1},
		warmAll: true, allHits: true, warmup: cfg.scale.hitWarmup,
		sequence: func() func(int) int { return func(int) int { return 0 } },
	}
	// The probe's requests are not paper-plan ops.
	probe := newResult()
	pl, _, err := w.tracedLayers(ctx, cfg, cfg.window/10, probe)
	if err != nil {
		return err
	}
	if !probe.Correct {
		r.fail(cfg.log, "paper-plan serve probe failed its checks")
	}
	for name, xs := range pl.samples {
		if strings.HasPrefix(name, "serve.") || strings.HasPrefix(name, "canon.") {
			lay.samples[name] = append(lay.samples[name], xs...)
		}
	}
	return nil
}
