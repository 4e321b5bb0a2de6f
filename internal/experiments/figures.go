package experiments

import (
	"fmt"
	"time"

	"uavdc/internal/core"
	"uavdc/internal/obs"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/simulate"
	"uavdc/internal/stats"
	"uavdc/internal/trace"
	"uavdc/internal/units"
)

// Trace span names emitted by runSweep when Config.Trace is attached: one
// SpanSweepPoint per (series, x) data point and one SpanSweepPlan per
// planner run, the latter enclosing the planner's own phase spans.
const (
	SpanSweepPoint = "sweep/point"
	SpanSweepPlan  = "sweep/plan"
)

// runSpec describes one series of a sweep: a planner plus the mapping from
// the swept x value to a concrete instance.
type runSpec struct {
	name     string
	planner  core.Planner
	instance func(net *sensornet.Network, x float64) *core.Instance
}

// networks generates the shared instance pool: the same random networks
// are reused across every x value and every series, so comparisons are
// paired exactly as in the paper.
func (c *Config) networks() ([]*sensornet.Network, error) {
	root := rng.New(c.Seed)
	nets := make([]*sensornet.Network, c.Instances)
	for i := range nets {
		net, err := sensornet.Generate(c.Gen, root.SplitN("network", i))
		if err != nil {
			return nil, err
		}
		nets[i] = net
	}
	return nets, nil
}

// runSweep executes every (x, instance, spec) cell and aggregates.
func runSweep(cfg Config, xs []float64, specs []runSpec) ([]Series, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	nets, err := cfg.networks()
	if err != nil {
		return nil, err
	}
	var tr trace.Tracer = trace.Discard
	if cfg.Trace != nil {
		tr = cfg.Trace
	}
	series := make([]Series, len(specs))
	for si, spec := range specs {
		series[si].Name = spec.name
		for _, x := range xs {
			endPoint := tr.Begin(SpanSweepPoint,
				trace.Str("series", spec.name), trace.Num("x", x))
			vols := make([]float64, 0, len(nets))
			times := make([]float64, 0, len(nets))
			// One registry per (series, x) point: counters aggregate over
			// the point's instances, exactly like volume and runtime.
			var reg *obs.Registry
			if cfg.Metrics {
				reg = obs.NewRegistry()
			}
			for ni, net := range nets {
				in := spec.instance(net, x)
				in.Reference = cfg.Reference
				if reg != nil {
					in.Obs = reg
				}
				if tr.Enabled() {
					in.Obs = trace.With(in.Obs, tr)
				}
				endPlan := tr.Begin(SpanSweepPlan, trace.Int("instance", ni))
				start := time.Now() //uavdc:allow nodeterminism runtime panel (b) measures wall time; volumes stay deterministic
				plan, err := spec.planner.Plan(in)
				elapsed := time.Since(start).Seconds() //uavdc:allow nodeterminism runtime panel (b) measures wall time; volumes stay deterministic
				endPlan()
				if err != nil {
					return nil, fmt.Errorf("experiments: %s at x=%g: %w", spec.name, x, err)
				}
				// Re-check every plan with the validator and the flight
				// simulator; any violation fails the sweep.
				if err := core.ValidatePlanPhysics(in.Net, in.Model, in.Physics(), plan); err != nil {
					return nil, fmt.Errorf("experiments: %s at x=%g produced invalid plan: %w", spec.name, x, err)
				}
				res := simulate.Run(in.Net, in.Model, plan, simulate.Options{Altitude: in.Altitude, Radio: in.Radio})
				if !res.Completed {
					return nil, fmt.Errorf("experiments: %s at x=%g: simulated mission aborted: %s", spec.name, x, res.AbortReason)
				}
				vols = append(vols, plan.Collected())
				times = append(times, elapsed)
			}
			vs, ts := stats.Summarize(vols), stats.Summarize(times)
			p := Point{
				X:         x,
				Volume:    vs.Mean,
				VolumeCI:  vs.CI95(),
				Runtime:   ts.Mean,
				RuntimeCI: ts.CI95(),
				N:         vs.N,
			}
			if reg != nil {
				p.Counters = reg.Snapshot().Counters
			}
			series[si].Points = append(series[si].Points, p)
			endPoint(trace.Int("instances", len(nets)))
		}
	}
	return series, nil
}

func capacityInstance(cfg Config, delta float64, k int) func(*sensornet.Network, float64) *core.Instance {
	return func(net *sensornet.Network, x float64) *core.Instance {
		return &core.Instance{
			Net:   net,
			Model: cfg.Model.WithCapacity(units.Joules(x)),
			Delta: units.Meters(delta),
			K:     k,
		}
	}
}

func deltaInstance(cfg Config, k int) func(*sensornet.Network, float64) *core.Instance {
	return func(net *sensornet.Network, x float64) *core.Instance {
		return &core.Instance{
			Net:   net,
			Model: cfg.Model,
			Delta: units.Meters(x),
			K:     k,
		}
	}
}

// Fig3 regenerates Fig. 3: the no-overlap problem, Algorithm 1 vs the
// benchmark, collected volume (a) and running time (b) as the energy
// capacity E grows.
func Fig3(cfg Config) (*Table, error) {
	specs := []runSpec{
		{name: "algorithm1", planner: &core.Algorithm1{}, instance: capacityInstance(cfg, cfg.Delta, 1)},
		{name: "benchmark", planner: &core.BenchmarkPlanner{}, instance: capacityInstance(cfg, cfg.Delta, 1)},
	}
	series, err := runSweep(cfg, cfg.Capacities, specs)
	if err != nil {
		return nil, err
	}
	return &Table{
		Figure: "fig3",
		Title:  "no-overlap data collection vs energy capacity",
		XLabel: "energy capacity",
		XUnit:  "J",
		Series: series,
	}, nil
}

// Fig4 regenerates Fig. 4: the overlapping problem, Algorithm 2 and
// Algorithm 3 (one series per K) vs the benchmark as the grid resolution δ
// grows, at the default energy capacity.
func Fig4(cfg Config) (*Table, error) {
	specs := []runSpec{
		{name: "algorithm2", planner: &core.Algorithm2{}, instance: deltaInstance(cfg, 1)},
	}
	for _, k := range cfg.Ks {
		specs = append(specs, runSpec{
			name:     fmt.Sprintf("algorithm3-k%d", k),
			planner:  &core.Algorithm3{},
			instance: deltaInstance(cfg, k),
		})
	}
	specs = append(specs, runSpec{
		name:     "benchmark",
		planner:  &core.BenchmarkPlanner{},
		instance: deltaInstance(cfg, 1),
	})
	series, err := runSweep(cfg, cfg.Deltas, specs)
	if err != nil {
		return nil, err
	}
	return &Table{
		Figure: "fig4",
		Title:  fmt.Sprintf("overlapping data collection vs grid resolution δ (E = %g J)", cfg.Model.Capacity),
		XLabel: "delta",
		XUnit:  "m",
		Series: series,
	}, nil
}

// Fig5 regenerates Fig. 5: the overlapping problem at fixed δ as the
// energy capacity grows.
func Fig5(cfg Config) (*Table, error) {
	specs := []runSpec{
		{name: "algorithm2", planner: &core.Algorithm2{}, instance: capacityInstance(cfg, cfg.Delta, 1)},
	}
	for _, k := range cfg.Ks {
		specs = append(specs, runSpec{
			name:     fmt.Sprintf("algorithm3-k%d", k),
			planner:  &core.Algorithm3{},
			instance: capacityInstance(cfg, cfg.Delta, k),
		})
	}
	specs = append(specs, runSpec{
		name:     "benchmark",
		planner:  &core.BenchmarkPlanner{},
		instance: capacityInstance(cfg, cfg.Delta, 1),
	})
	series, err := runSweep(cfg, cfg.Capacities, specs)
	if err != nil {
		return nil, err
	}
	return &Table{
		Figure: "fig5",
		Title:  fmt.Sprintf("overlapping data collection vs energy capacity (δ = %g m)", cfg.Delta),
		XLabel: "energy capacity",
		XUnit:  "J",
		Series: series,
	}, nil
}

// Figures maps figure ids to their drivers: the paper's Figs. 3–5 plus the
// extension experiments (see extensions.go).
var Figures = map[string]func(Config) (*Table, error){
	"fig3":              Fig3,
	"fig4":              Fig4,
	"fig5":              Fig5,
	"ext-altitude":      ExtAltitude,
	"ext-fleet":         ExtFleet,
	"ext-robustness":    ExtRobustness,
	"ext-decomposition": ExtDecomposition,
}

// Run executes the named figure ("fig3", "fig4", "fig5", "ext-altitude",
// "ext-fleet", "ext-robustness").
func Run(name string, cfg Config) (*Table, error) {
	f, ok := Figures[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have fig3, fig4, fig5, ext-altitude, ext-fleet, ext-robustness)", name)
	}
	return f(cfg)
}
