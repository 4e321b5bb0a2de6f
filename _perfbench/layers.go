package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"uavdc"
	"uavdc/internal/core"
	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/hover"
	"uavdc/internal/obs"
	"uavdc/internal/sensornet"
	"uavdc/internal/serve"
	"uavdc/internal/simulate"
	"uavdc/internal/trace"
	"uavdc/internal/tsp"
	"uavdc/internal/units"
)

// layerMetrics is the per-layer output of a traced run, in report order.
// agg folds a metric's samples: the median for per-request times, whose
// tails come from scheduling, the mean for per-plan work.
var layerMetrics = []struct {
	name, unit string
	agg        func([]float64) float64
}{
	{"serve.http_overhead_ms", "ms", median},
	{"serve.decode_ms", "ms", median},
	{"canon.key_ms", "ms", median},
	{"canon.key_alloc_kb", "KB", median},
	{"serve.do_hit_ms", "ms", median},
	{"serve.do_miss_ms", "ms", median},
	{"serve.queue_wait_ms", "ms", median},
	{"serve.plan_ms", "ms", median},
	{"serve.encode_ms", "ms", median},
	{"serve.hit_ratio", "ratio", mean},
	{"serve.coalesced_ratio", "ratio", mean},
	{"serve.evictions_per_op", "1/op", mean},
	{"serve.rejected_ratio", "ratio", mean},
	{"serve.cache_mb", "MiB", mean},
	{"hover.build_ms", "ms", mean},
	{"hover.candidates", "count", mean},
	{"core.alg1.plan_ms", "ms", mean},
	{"core.alg2.plan_ms", "ms", mean},
	{"core.alg3.plan_ms", "ms", mean},
	{"core.benchmark.plan_ms", "ms", mean},
	{"core.alg2.iterate_ms", "ms", mean},
	{"core.alg3.iterate_ms", "ms", mean},
	{"core.plan_alloc_kb", "KB", mean},
	{"core.validate_ms", "ms", mean},
	{"core.candidate_evals", "count/plan", mean},
	{"core.scan_skipped_drained", "count/plan", mean},
	{"core.pruned_over_budget", "count/plan", mean},
	{"core.residual_recomputes", "count/plan", mean},
	{"core.scan_useful_ratio", "ratio", mean},
	{"core.pruned_ratio", "ratio", mean},
	{"tsp.christofides_ms", "ms", mean},
	{"tsp.christofides.matching_ms", "ms", mean},
	{"tsp.improve_ms", "ms", mean},
	{"tsp.twoopt_passes", "count/plan", mean},
	{"tsp.oropt_passes", "count/plan", mean},
	{"orienteering.solve_ms", "ms", mean},
	{"simulate.run_ms", "ms", mean},
	{"gc.cycles_per_op", "1/op", mean},
	{"trace.overhead_frac", "ratio", mean},
	{"trace.coverage", "ratio", median},
}

// layerStats accumulates a traced run's per-layer samples. It is used
// from one goroutine; concurrent clients merge into it after joining.
type layerStats struct {
	samples map[string][]float64
	// counters sums the planners' obs counters over plans.
	counters map[string]int64
	plans    int
}

func newLayerStats() *layerStats {
	return &layerStats{samples: map[string][]float64{}, counters: map[string]int64{}}
}

func (l *layerStats) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// cover adds one window op to trace.coverage: the share of its wall
// time spent inside named layers.
func (l *layerStats) cover(wall, attributed time.Duration) {
	if wall > 0 {
		l.add("trace.coverage", min(attributed.Seconds()/wall.Seconds(), 1))
	}
}

// report folds the samples into r. A layer the run never reached reads
// 0 and is named on the log.
func (l *layerStats) report(r *result, log io.Writer) {
	if l.plans > 0 {
		n := float64(l.plans)
		for _, name := range []string{core.CounterCandidateEvals, core.CounterScanSkippedDrained,
			core.CounterPrunedOverBudget, core.CounterResidualRecomputes,
			tsp.CounterTwoOptPasses, tsp.CounterOrOptPasses} {
			l.add(name, float64(l.counters[name])/n)
		}
		if evals := float64(l.counters[core.CounterCandidateEvals]); evals > 0 {
			useful := l.counters[core.CounterAcceptedStops] + l.counters[core.CounterUpgradedStops]
			l.add("core.scan_useful_ratio", float64(useful)/evals)
			l.add("core.pruned_ratio", float64(l.counters[core.CounterPrunedOverBudget])/evals)
		}
	}
	for _, m := range layerMetrics {
		xs := l.samples[m.name]
		if len(xs) == 0 {
			fmt.Fprintf(log, "perfbench: layer metric %s not reached by this workload; reported as 0\n", m.name)
		}
		r.set(m.name, m.agg(xs), m.unit)
	}
}

// corePlanner maps a library algorithm to its core planner, its plan
// time metric and its top-level trace span.
func corePlanner(alg uavdc.Algorithm) (core.Planner, string, string) {
	switch alg {
	case uavdc.AlgorithmNoOverlap:
		return &core.Algorithm1{}, "core.alg1.plan_ms", core.SpanPlanAlg1
	case uavdc.AlgorithmGreedy:
		return &core.Algorithm2{}, "core.alg2.plan_ms", core.SpanPlanAlg2
	case uavdc.AlgorithmPartial:
		return &core.Algorithm3{}, "core.alg3.plan_ms", core.SpanPlanAlg3
	}
	return &core.BenchmarkPlanner{}, "core.benchmark.plan_ms", core.SpanPlanBench
}

// coreInstance builds the planning instance uavdc.Plan builds for the
// scenario under the field's options.
func coreInstance(f field, sc uavdc.Scenario) *core.Instance {
	net := &sensornet.Network{
		Region:    geom.Square(sc.RegionSideM),
		Depot:     geom.Pt(sc.DepotX, sc.DepotY),
		Bandwidth: sc.BandwidthMBps,
		CommRange: sc.CoverRadiusM,
		Sensors:   make([]sensornet.Sensor, len(sc.Sensors)),
	}
	for i, s := range sc.Sensors {
		net.Sensors[i] = sensornet.Sensor{Pos: geom.Pt(s.X, s.Y), Data: s.DataMB}
	}
	u := f.uav()
	return &core.Instance{
		Net: net,
		Model: energy.Model{
			HoverPower:  units.Watts(u.HoverPowerW),
			TravelPower: units.Watts(u.TravelPowerW),
			Speed:       units.MetersPerSecond(u.SpeedMS),
			Capacity:    units.Joules(u.CapacityJ),
		},
		Delta: units.Meters(f.deltaM),
		K:     f.k,
	}
}

// planLayers plans sc with alg through the library's layers one call at
// a time — hover.Build, the core planner, core.ValidatePlanPhysics and
// simulate.Run — timing each call and folding the planner's obs counters
// and trace spans (trace.Summarize) into l. The hover.Build call is a
// replay of the planner's own candidate build and lies outside the
// returned op wall time. window marks the call as a measured op for
// trace.coverage. It returns the simulated collected volume.
func planLayers(f field, sc uavdc.Scenario, alg uavdc.Algorithm, l *layerStats, window bool) (float64, time.Duration, error) {
	in := coreInstance(f, sc)
	start := time.Now()
	set, err := hover.Build(in.Net, in.Model, in.Delta, hover.Options{CoverRadius: in.EffectiveCoverRadius()})
	if err != nil {
		return 0, 0, fmt.Errorf("hover.Build: %w", err)
	}
	l.add("hover.build_ms", ms(time.Since(start)))
	l.add("hover.candidates", float64(set.Len()))

	reg := obs.NewRegistry()
	buf := trace.NewBuffer()
	in.Obs = trace.With(reg, buf)
	planner, planMetric, topSpan := corePlanner(alg)

	start = time.Now()
	m0 := readMem()
	plan, err := planner.Plan(in)
	m1 := readMem()
	planDur := time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("%s plan: %w", alg, err)
	}
	t := time.Now()
	err = core.ValidatePlanPhysics(in.Net, in.Model, in.Physics(), plan)
	validDur := time.Since(t)
	if err != nil {
		return 0, 0, fmt.Errorf("%s plan invalid: %w", alg, err)
	}
	t = time.Now()
	sim := simulate.Run(in.Net, in.Model, plan, simulate.Options{Altitude: in.Altitude, Radio: in.Radio})
	simDur := time.Since(t)
	wall := time.Since(start)
	if !sim.Completed {
		return 0, 0, fmt.Errorf("%s mission aborted: %s", alg, sim.AbortReason)
	}
	if got, want := sim.Collected, plan.Collected(); math.Abs(got-want) > 1e-6*math.Max(1, want) {
		return 0, 0, fmt.Errorf("%s simulated %v MB, plan says %v MB", alg, got, want)
	}

	phase := map[string]float64{}
	for _, p := range trace.Summarize(buf.Snapshot(), 0).Phases {
		phase[p.Name] = p.Total * 1e3
	}
	l.add(planMetric, ms(planDur))
	l.add("core.plan_alloc_kb", float64(m1.allocBytes-m0.allocBytes)/1e3)
	l.add("core.validate_ms", ms(validDur))
	l.add("simulate.run_ms", ms(simDur))
	switch alg {
	case uavdc.AlgorithmNoOverlap:
		l.add("orienteering.solve_ms", phase[core.SpanPlanAlg1Orienteering])
	case uavdc.AlgorithmGreedy:
		l.add("core.alg2.iterate_ms", phase[core.SpanPlanAlg2Iterate])
	case uavdc.AlgorithmPartial:
		l.add("core.alg3.iterate_ms", phase[core.SpanPlanAlg3Iterate])
	}
	l.add("tsp.christofides_ms", phase[tsp.SpanChristofides])
	l.add("tsp.christofides.matching_ms", phase[tsp.SpanChristofidesMatching])
	l.add("tsp.improve_ms", phase[tsp.SpanImprove])
	for name, v := range reg.Snapshot().Counters {
		l.counters[name] += v
	}
	l.plans++
	if window {
		spans := time.Duration(phase[topSpan] * float64(time.Millisecond))
		l.cover(wall, spans+validDur+simDur)
	}
	return sim.Collected, wall, nil
}

// layerPass plans the first scenarios of a serving workload with all
// four planners through planLayers, and times serve.EncodeResult on
// every reference result, so a traced serving run reports every planner
// layer at its own instance scale. It checks each plan of the request's
// own algorithm against the reference volume.
func layerPass(f field, reqs []request, limit int, l *layerStats) error {
	for i := range reqs {
		if i < limit {
			sc := reqs[i].req.Scenario.Scenario()
			for _, alg := range planners {
				got, _, err := planLayers(f, sc, alg, l, false)
				if err != nil {
					return fmt.Errorf("layer pass request %d: %w", i, err)
				}
				if string(alg) == reqs[i].req.Options.Algorithm && got != reqs[i].result.CollectedMB {
					return fmt.Errorf("layer pass request %d: %s collected %v MB, uavdc.Plan %v MB",
						i, alg, got, reqs[i].result.CollectedMB)
				}
			}
		}
		timeEncode(reqs[i].req, reqs[i].result, l)
	}
	return nil
}

// timeEncode times serve.EncodeResult on one result.
func timeEncode(req serve.Request, res *uavdc.Result, l *layerStats) {
	key, err := req.Key()
	if err != nil {
		return
	}
	start := time.Now()
	_, err = serve.EncodeResult(key, res)
	if err == nil {
		l.add("serve.encode_ms", ms(time.Since(start)))
	}
}
