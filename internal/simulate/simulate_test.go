package simulate

import (
	"math"
	"strings"
	"testing"

	"uavdc/internal/core"
	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/trace"
	"uavdc/internal/units"
)

// flightEvent is one mission trace event, projected on the attributes
// Run and AdaptiveRun both emit.
type flightEvent struct {
	kind                                         string // the name after MissionEventPrefix
	tSim, stop, x, y, energy, collected, battery float64
}

func (ev flightEvent) pos() geom.Point { return geom.Pt(ev.x, ev.y) }

// flightLog returns the mission events recorded in buf, in order.
func flightLog(buf *trace.Buffer) []flightEvent {
	var out []flightEvent
	for _, r := range buf.Snapshot().Records {
		kind, ok := strings.CutPrefix(r.Name, MissionEventPrefix)
		if r.Kind != trace.KindEvent || !ok {
			continue
		}
		ev := flightEvent{kind: kind}
		for _, a := range r.Attrs {
			switch a.Key {
			case "t_sim":
				ev.tSim = a.Num
			case "stop":
				ev.stop = a.Num
			case "x":
				ev.x = a.Num
			case "y":
				ev.y = a.Num
			case "energy_j":
				ev.energy = a.Num
			case "collected_mb":
				ev.collected = a.Num
			case "battery_j":
				ev.battery = a.Num
			}
		}
		out = append(out, ev)
	}
	return out
}

// runTraced runs the simulator with a trace buffer attached and returns
// its mission events with the result.
func runTraced(net *sensornet.Network, em energy.Model, plan *core.Plan, opts Options) (Result, []flightEvent) {
	buf := trace.NewBuffer()
	opts.Trace = buf
	return Run(net, em, plan, opts), flightLog(buf)
}

// adaptiveTraced is runTraced for the adaptive executor.
func adaptiveTraced(in *core.Instance, plan *core.Plan, opts AdaptiveOptions) (AdaptiveResult, []flightEvent) {
	buf := trace.NewBuffer()
	opts.Trace = buf
	return AdaptiveRun(in, plan, opts), flightLog(buf)
}

// hasEvent reports whether events holds one of the given kind.
func hasEvent(events []flightEvent, kind EventKind) bool {
	for _, ev := range events {
		if ev.kind == kind.String() {
			return true
		}
	}
	return false
}

func simNet() *sensornet.Network {
	return &sensornet.Network{
		Region:    geom.Square(200),
		Depot:     geom.Pt(0, 0),
		Bandwidth: 10,
		CommRange: 20,
		Sensors: []sensornet.Sensor{
			{Pos: geom.Pt(50, 0), Data: 100},
			{Pos: geom.Pt(55, 0), Data: 200},
			{Pos: geom.Pt(150, 0), Data: 50},
		},
	}
}

func simPlan() *core.Plan {
	return &core.Plan{
		Algorithm: "test",
		Depot:     geom.Pt(0, 0),
		Stops: []core.Stop{
			{Pos: geom.Pt(52, 0), Sojourn: 20, Collected: []core.Collection{
				{Sensor: 0, Amount: 100}, {Sensor: 1, Amount: 200},
			}},
			{Pos: geom.Pt(150, 0), Sojourn: 5, Collected: []core.Collection{
				{Sensor: 2, Amount: 50},
			}},
		},
	}
}

func TestRunCompletesAndMatchesPlanAccounting(t *testing.T) {
	net := simNet()
	em := energy.Default()
	plan := simPlan()
	res, events := runTraced(net, em, plan, Options{})
	if !res.Completed {
		t.Fatalf("mission aborted: %s", res.AbortReason)
	}
	if math.Abs(res.FlightDistance-plan.FlightDistance()) > 1e-9 {
		t.Errorf("flight %v vs plan %v", res.FlightDistance, plan.FlightDistance())
	}
	if math.Abs(res.HoverTime-plan.HoverTime()) > 1e-9 {
		t.Errorf("hover %v vs plan %v", res.HoverTime, plan.HoverTime())
	}
	if math.Abs(res.EnergyUsed-plan.Energy(em)) > 1e-9 {
		t.Errorf("energy %v vs plan %v", res.EnergyUsed, plan.Energy(em))
	}
	if math.Abs(res.Collected-plan.Collected()) > 1e-9 {
		t.Errorf("collected %v vs plan %v", res.Collected, plan.Collected())
	}
	if math.Abs(res.MissionTime-plan.Duration(em)) > 1e-9 {
		t.Errorf("mission time %v vs plan %v", res.MissionTime, plan.Duration(em))
	}
	// Trace shape: takeoff, (arrive, collect)×2, return.
	kinds := []EventKind{EventTakeoff, EventArrive, EventCollect, EventArrive, EventCollect, EventReturn}
	if len(events) != len(kinds) {
		t.Fatalf("got %d events", len(events))
	}
	for i, k := range kinds {
		if events[i].kind != k.String() {
			t.Errorf("event %d = %v, want %v", i, events[i].kind, k)
		}
		if i > 0 && events[i].tSim < events[i-1].tSim {
			t.Error("events not time-ordered")
		}
	}
	if last := events[len(events)-1]; last.energy != res.EnergyUsed || last.collected != res.Collected {
		t.Errorf("return event %+v disagrees with the result", last)
	}
}

func TestRunDiesEnRoute(t *testing.T) {
	em := energy.Default().WithCapacity(300) // 30 m of flight only
	res, events := runTraced(simNet(), em, simPlan(), Options{})
	if res.Completed {
		t.Fatal("impossible mission completed")
	}
	if res.AbortReason == "" {
		t.Error("missing abort reason")
	}
	if math.Abs(res.FlightDistance-30) > 1e-9 {
		t.Errorf("died after %v m, want 30", res.FlightDistance)
	}
	if res.Collected != 0 {
		t.Error("collected data without reaching a stop")
	}
	if last := events[len(events)-1]; last.kind != EventBatteryDead.String() {
		t.Errorf("last event %v", last.kind)
	}
}

func TestRunDiesWhileHovering(t *testing.T) {
	// Enough to reach stop 1 (520 J) and hover ~10 s of the needed 20 s.
	em := energy.Default().WithCapacity(520 + 10*150)
	res := Run(simNet(), em, simPlan(), Options{})
	if res.Completed {
		t.Fatal("should die hovering")
	}
	// 10 s at 10 MB/s: sensor 0 gives 100 (its full amount), sensor 1
	// gives 100 of 200.
	if math.Abs(res.Collected-200) > 1e-6 {
		t.Errorf("partial collection = %v, want 200", res.Collected)
	}
	if math.Abs(res.HoverTime-10) > 1e-9 {
		t.Errorf("hover time %v, want 10", res.HoverTime)
	}
}

func TestRunDiesOnReturnLeg(t *testing.T) {
	// Exactly enough for both stops and hovers but not the 150 m home.
	plan := simPlan()
	em := energy.Default()
	need := plan.Energy(em)
	em = em.WithCapacity(units.Joules(need - 100)) // 10 m short
	res := Run(simNet(), em, plan, Options{})
	if res.Completed {
		t.Fatal("should die on return")
	}
	if res.AbortReason != "battery died on the return leg" {
		t.Errorf("reason = %q", res.AbortReason)
	}
	// All data was nevertheless gathered before the failure.
	if math.Abs(res.Collected-350) > 1e-6 {
		t.Errorf("collected %v", res.Collected)
	}
}

func TestRunTruncatesOverdraw(t *testing.T) {
	// A malicious plan claiming more than bandwidth×sojourn or more than
	// the stored volume gets physically truncated.
	net := simNet()
	plan := &core.Plan{Depot: geom.Pt(0, 0), Stops: []core.Stop{{
		Pos:     geom.Pt(52, 0),
		Sojourn: 5, // cap 50 MB per sensor
		Collected: []core.Collection{
			{Sensor: 0, Amount: 1000}, // wants 1000, cap 50
			{Sensor: 99, Amount: 50},  // unknown sensor: ignored
		},
	}}}
	res := Run(net, energy.Default(), plan, Options{})
	if !res.Completed {
		t.Fatal(res.AbortReason)
	}
	if math.Abs(res.Collected-50) > 1e-9 {
		t.Errorf("collected %v, want 50", res.Collected)
	}
}

func TestRunConservesPerSensorAcrossStops(t *testing.T) {
	// Two stops both claiming sensor 0's full volume: the second gets 0.
	net := simNet()
	plan := &core.Plan{Depot: geom.Pt(0, 0), Stops: []core.Stop{
		{Pos: geom.Pt(50, 0), Sojourn: 10, Collected: []core.Collection{{Sensor: 0, Amount: 100}}},
		{Pos: geom.Pt(50, 5), Sojourn: 10, Collected: []core.Collection{{Sensor: 0, Amount: 100}}},
	}}
	res := Run(net, energy.Default(), plan, Options{})
	if !res.Completed {
		t.Fatal(res.AbortReason)
	}
	if math.Abs(res.PerSensor[0]-100) > 1e-9 {
		t.Errorf("sensor 0 gave %v, stores 100", res.PerSensor[0])
	}
}

func TestEmptyPlanMission(t *testing.T) {
	res := Run(simNet(), energy.Default(), &core.Plan{Depot: geom.Pt(0, 0)}, Options{})
	if !res.Completed || res.EnergyUsed != 0 || res.Collected != 0 {
		t.Errorf("empty plan result %+v", res)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EventTakeoff; k <= EventBatteryDead; k++ {
		if k.String() == "" {
			t.Errorf("empty String for %d", int(k))
		}
	}
	if EventKind(42).String() == "" {
		t.Error("unknown kind String empty")
	}
}

// TestSimulatorAgreesWithAllPlanners is the integration cross-check: every
// planner's plan, executed by the simulator, completes and reproduces the
// plan's own accounting.
func TestSimulatorAgreesWithAllPlanners(t *testing.T) {
	p := sensornet.DefaultGenParams()
	p.NumSensors = 50
	p.Side = 300
	net, err := sensornet.Generate(p, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	em := energy.Default().WithCapacity(4e4)
	in := &core.Instance{Net: net, Model: em, Delta: 25, K: 3}
	planners := []core.Planner{
		&core.Algorithm1{}, &core.Algorithm2{}, &core.Algorithm3{}, &core.BenchmarkPlanner{},
	}
	for _, pl := range planners {
		plan, err := pl.Plan(in)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		res := Run(net, em, plan, Options{})
		if !res.Completed {
			t.Fatalf("%s: mission aborted: %s", pl.Name(), res.AbortReason)
		}
		if math.Abs(res.Collected-plan.Collected()) > 1e-6*(1+plan.Collected()) {
			t.Errorf("%s: simulator collected %v, plan claims %v", pl.Name(), res.Collected, plan.Collected())
		}
		if res.EnergyUsed > em.Capacity.F()+1e-6 {
			t.Errorf("%s: energy %v over capacity", pl.Name(), res.EnergyUsed)
		}
	}
}
