package experiments

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"uavdc/internal/core"
	"uavdc/internal/multi"
	"uavdc/internal/radio"
	"uavdc/internal/sensornet"
	"uavdc/internal/simulate"
	"uavdc/internal/trace"
	"uavdc/internal/units"
)

// missionAttrs are the mission trace attributes Run and AdaptiveRun both
// emit.
var missionAttrs = []string{"t_sim", "stop", "x", "y", "energy_j", "collected_mb", "battery_j"}

// missionLog projects buf's mission events on missionAttrs, one line per
// event, in order.
func missionLog(buf *trace.Buffer) []string {
	var out []string
	for _, r := range buf.Snapshot().Records {
		if r.Kind != trace.KindEvent || !strings.HasPrefix(r.Name, simulate.MissionEventPrefix) {
			continue
		}
		line := r.Name
		for _, key := range missionAttrs {
			for _, a := range r.Attrs {
				if a.Key == key {
					line += fmt.Sprintf(" %s=%b", key, a.Num)
				}
			}
		}
		out = append(out, line)
	}
	return out
}

// shannonInstance mirrors ExtAltitude's Shannon series instance.
func shannonInstance(cfg Config, net *sensornet.Network, altitude float64) *core.Instance {
	return &core.Instance{
		Net: net, Model: cfg.Model, Delta: units.Meters(cfg.Delta), K: 1, Altitude: units.Meters(altitude),
		Radio: radio.Shannon{RefRate: units.BitsPerSecond(net.Bandwidth), RefDist: 10, RefSNR: 100, PathLossExp: 2.7},
	}
}

// parityCell is one (instance, plan) execution cell from a figure driver.
type parityCell struct {
	label string
	in    *core.Instance
	plan  *core.Plan
}

// figureParityCells reconstructs, per figure driver, the exact (instance,
// planner) cells the driver executes, and plans each one.
func figureParityCells(t *testing.T, fig string, cfg Config, nets []*sensornet.Network) []parityCell {
	t.Helper()
	var cells []parityCell
	add := func(label string, planner core.Planner, mk func(*sensornet.Network, float64) *core.Instance, xs []float64) {
		for _, x := range xs {
			for ni, net := range nets {
				in := mk(net, x)
				plan, err := planner.Plan(in)
				if err != nil {
					t.Fatalf("%s/%s x=%g net=%d: %v", fig, label, x, ni, err)
				}
				cells = append(cells, parityCell{
					label: fmt.Sprintf("%s/%s x=%g net=%d", fig, label, x, ni),
					in:    in, plan: plan,
				})
			}
		}
	}
	switch fig {
	case "fig3":
		add("algorithm1", &core.Algorithm1{}, capacityInstance(cfg, cfg.Delta, 1), cfg.Capacities)
		add("benchmark", &core.BenchmarkPlanner{}, capacityInstance(cfg, cfg.Delta, 1), cfg.Capacities)
	case "fig4":
		add("algorithm2", &core.Algorithm2{}, deltaInstance(cfg, 1), cfg.Deltas)
		for _, k := range cfg.Ks {
			add(fmt.Sprintf("algorithm3-k%d", k), &core.Algorithm3{}, deltaInstance(cfg, k), cfg.Deltas)
		}
		add("benchmark", &core.BenchmarkPlanner{}, deltaInstance(cfg, 1), cfg.Deltas)
	case "fig5":
		add("algorithm2", &core.Algorithm2{}, capacityInstance(cfg, cfg.Delta, 1), cfg.Capacities)
		for _, k := range cfg.Ks {
			add(fmt.Sprintf("algorithm3-k%d", k), &core.Algorithm3{}, capacityInstance(cfg, cfg.Delta, k), cfg.Capacities)
		}
		add("benchmark", &core.BenchmarkPlanner{}, capacityInstance(cfg, cfg.Delta, 1), cfg.Capacities)
	case "ext-altitude":
		altitudes := []float64{0, 10, 20, 30, 40}
		add("constant-B", &core.Algorithm2{}, func(net *sensornet.Network, x float64) *core.Instance {
			return &core.Instance{Net: net, Model: cfg.Model, Delta: units.Meters(cfg.Delta), K: 1, Altitude: units.Meters(x)}
		}, altitudes)
		// The driver's Shannon series uses a per-network radio model; build
		// it the same way.
		for _, x := range altitudes {
			for ni, net := range nets {
				in := shannonInstance(cfg, net, x)
				plan, err := (&core.Algorithm2{}).Plan(in)
				if err != nil {
					t.Fatalf("%s/shannon x=%g net=%d: %v", fig, x, ni, err)
				}
				cells = append(cells, parityCell{
					label: fmt.Sprintf("%s/shannon x=%g net=%d", fig, x, ni),
					in:    in, plan: plan,
				})
			}
		}
	case "ext-decomposition":
		add("plain", &core.BenchmarkPlanner{}, capacityInstance(cfg, cfg.Delta, 1), cfg.Capacities)
		add("coverage", &core.BenchmarkCoverage{}, capacityInstance(cfg, cfg.Delta, 1), cfg.Capacities)
		add("placed", &core.Algorithm2{}, capacityInstance(cfg, cfg.Delta, 1), cfg.Capacities)
	case "ext-fleet":
		for _, strat := range []multi.Strategy{multi.StrategyKMeans, multi.StrategySweep} {
			for _, size := range []int{1, 2, 3, 4} {
				for ni, net := range nets {
					in := &core.Instance{Net: net, Model: cfg.Model, Delta: units.Meters(cfg.Delta), K: 2}
					fp, err := multi.PlanFleet(in, multi.Options{
						Fleet: size, Strategy: strat, Seed: cfg.Seed,
					})
					if err != nil {
						t.Fatalf("%s/%v size=%d net=%d: %v", fig, strat, size, ni, err)
					}
					for u, plan := range fp.PerUAV {
						cells = append(cells, parityCell{
							label: fmt.Sprintf("%s/%v size=%d net=%d uav=%d", fig, strat, size, ni, u),
							in:    in, plan: plan,
						})
					}
				}
			}
		}
	case "ext-robustness":
		// The driver plans on a derated budget, then flies with the full
		// battery; the fault-free parity claim applies to that execution.
		for _, margin := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
			for ni, net := range nets {
				in := &core.Instance{
					Net:   net,
					Model: cfg.Model.WithCapacity(units.Scale(cfg.Model.Capacity, 1-margin)),
					Delta: units.Meters(cfg.Delta),
					K:     2,
				}
				plan, err := (&core.Algorithm3{}).Plan(in)
				if err != nil {
					t.Fatalf("%s margin=%v net=%d: %v", fig, margin, ni, err)
				}
				exec := &core.Instance{Net: net, Model: cfg.Model, Delta: units.Meters(cfg.Delta), K: 2}
				cells = append(cells, parityCell{
					label: fmt.Sprintf("%s margin=%v net=%d", fig, margin, ni),
					in:    exec, plan: plan,
				})
			}
		}
	default:
		t.Fatalf("no parity cells defined for figure %q", fig)
	}
	return cells
}

// TestAdaptiveRunMatchesRunOnFigureDrivers: with faults disabled and no
// noise, the adaptive executor reproduces the reference simulator's
// mission trace and volumes bit-for-bit on every execution cell of all
// seven figure drivers.
func TestAdaptiveRunMatchesRunOnFigureDrivers(t *testing.T) {
	cfg := Tiny()
	nets, err := cfg.networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range slices.Sorted(maps.Keys(Figures)) {
		t.Run(fig, func(t *testing.T) {
			for _, cell := range figureParityCells(t, fig, cfg, nets) {
				wantBuf, gotBuf := trace.NewBuffer(), trace.NewBuffer()
				opts := simulate.Options{Altitude: cell.in.Altitude, Radio: cell.in.Radio, Trace: wantBuf}
				want := simulate.Run(cell.in.Net, cell.in.Model, cell.plan, opts)
				opts.Trace = gotBuf
				got := simulate.AdaptiveRun(cell.in, cell.plan, simulate.AdaptiveOptions{Options: opts})
				if !want.Completed {
					t.Fatalf("%s: reference mission aborted: %s", cell.label, want.AbortReason)
				}
				if got.Replans != 0 || got.Diverted {
					t.Fatalf("%s: fault-free adaptive execution replanned/diverted", cell.label)
				}
				if !reflect.DeepEqual(got.Result, want) {
					t.Errorf("%s: adaptive result diverges from Run:\n got %+v\nwant %+v",
						cell.label, got.Result, want)
				}
				wantLog, gotLog := missionLog(wantBuf), missionLog(gotBuf)
				if len(wantLog) == 0 {
					t.Fatalf("%s: the reference run traced no mission events", cell.label)
				}
				if !slices.Equal(gotLog, wantLog) {
					t.Errorf("%s: adaptive mission trace diverges from Run:\n got %q\nwant %q",
						cell.label, gotLog, wantLog)
				}
			}
		})
	}
}
