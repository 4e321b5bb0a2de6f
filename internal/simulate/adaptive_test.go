package simulate

import (
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"uavdc/internal/core"
	"uavdc/internal/energy"
	"uavdc/internal/faults"
	"uavdc/internal/geom"
	"uavdc/internal/obs"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/units"
)

// adaptiveInstance builds a mid-size random instance for executor tests.
func adaptiveInstance(t *testing.T, seed uint64, capacity units.Joules) *core.Instance {
	t.Helper()
	p := sensornet.DefaultGenParams()
	p.NumSensors = 40
	p.Side = 300
	net, err := sensornet.Generate(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &core.Instance{
		Net:   net,
		Model: energy.Default().WithCapacity(capacity),
		Delta: 25,
		K:     2,
	}
}

func allPlanners() []core.Planner {
	return []core.Planner{
		&core.Algorithm1{}, &core.Algorithm2{}, &core.Algorithm3{}, &core.BenchmarkPlanner{},
	}
}

// assertAdaptiveMatchesRun compares a fault-free, noise-free adaptive
// execution against the reference simulator bit-for-bit: volumes, energy,
// time, and the mission trace event by event.
func assertAdaptiveMatchesRun(t *testing.T, label string, in *core.Instance, plan *core.Plan) {
	t.Helper()
	opts := Options{Altitude: in.Altitude, Radio: in.Radio}
	want, wantEvents := runTraced(in.Net, in.Model, plan, opts)
	got, gotEvents := adaptiveTraced(in, plan, AdaptiveOptions{Options: opts})
	if !want.Completed {
		t.Fatalf("%s: reference mission aborted: %s", label, want.AbortReason)
	}
	if !got.Completed {
		t.Fatalf("%s: adaptive mission did not complete", label)
	}
	if got.Replans != 0 || got.Diverted || got.StopsSkipped != 0 {
		t.Fatalf("%s: fault-free execution replanned/diverted: %+v", label, got)
	}
	if got.MaxDeviation != 0 {
		t.Errorf("%s: fault-free deviation = %v, want exactly 0", label, got.MaxDeviation)
	}
	if got.EnergyUsed != want.EnergyUsed ||
		got.FlightDistance != want.FlightDistance ||
		got.HoverTime != want.HoverTime ||
		got.MissionTime != want.MissionTime ||
		got.Collected != want.Collected {
		t.Errorf("%s: scalar telemetry diverges:\n got %+v\nwant %+v", label, got.Result, want)
	}
	if !reflect.DeepEqual(got.PerSensor, want.PerSensor) {
		t.Errorf("%s: per-sensor volumes diverge", label)
	}
	if len(wantEvents) == 0 {
		t.Fatalf("%s: the reference run traced no mission events", label)
	}
	if len(gotEvents) != len(wantEvents) {
		t.Fatalf("%s: %d events, want %d", label, len(gotEvents), len(wantEvents))
	}
	for i := range wantEvents {
		if gotEvents[i] != wantEvents[i] {
			t.Errorf("%s: event %d = %+v, want %+v", label, i, gotEvents[i], wantEvents[i])
		}
	}
}

// TestAdaptiveMatchesRunFaultFree: with no schedule and no noise the
// adaptive executor is bit-for-bit the reference simulator, on every
// planner's plan.
func TestAdaptiveMatchesRunFaultFree(t *testing.T) {
	for _, seed := range []uint64{3, 9} {
		in := adaptiveInstance(t, seed, 2.5e4)
		for _, pl := range allPlanners() {
			plan, err := pl.Plan(in)
			if err != nil {
				t.Fatalf("%s: %v", pl.Name(), err)
			}
			assertAdaptiveMatchesRun(t, pl.Name(), in, plan)
		}
	}
}

// TestAdaptiveNeverDiesUnderFaults is the reachable-depot property test:
// across a fixed matrix of instance seeds, planners, fault schedules and
// noise settings, the adaptive executor never emits EventBatteryDead and
// always lands at the depot with a non-negative battery.
func TestAdaptiveNeverDiesUnderFaults(t *testing.T) {
	harsh := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindWind, Legs: faults.AllRange, Factor: 2.1},
		{Kind: faults.KindHoverDrain, Stops: faults.AllRange, Factor: 1.6},
		{Kind: faults.KindUploadFail, Stops: faults.Range{From: 1, To: 3}, Sensor: faults.AllSensors},
		{Kind: faults.KindNoHover, Zone: geom.Circle{C: geom.Pt(150, 150), R: 80}},
	}}
	def, err := faults.Parse(faults.DefaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	schedules := map[string]*faults.Schedule{
		"none":    nil,
		"default": def,
		"harsh":   harsh,
	}
	for s := int64(0); s < 4; s++ {
		schedules["rand"+string(rune('0'+s))] = faults.Random(s, 6, 0.5, 300)
	}
	for _, seed := range []uint64{1, 2, 5} {
		// A tight budget stresses the reserve logic the hardest.
		for _, capacity := range []units.Joules{1.2e4, 3e4} {
			in := adaptiveInstance(t, seed, capacity)
			for _, pl := range allPlanners() {
				plan, err := pl.Plan(in)
				if err != nil {
					t.Fatalf("%s: %v", pl.Name(), err)
				}
				for _, name := range slices.Sorted(maps.Keys(schedules)) {
					sched := schedules[name]
					for _, noise := range []Noise{{}, {Spread: 0.25, Seed: int64(seed)}} {
						res, events := adaptiveTraced(in, plan, AdaptiveOptions{
							Options: Options{Noise: noise},
							Faults:  sched,
						})
						label := pl.Name() + "/" + name
						if hasEvent(events, EventBatteryDead) {
							t.Fatalf("%s seed=%d cap=%g: battery died", label, seed, capacity)
						}
						if res.FinalBattery < 0 {
							t.Errorf("%s seed=%d cap=%g: depot battery %v < 0",
								label, seed, capacity, res.FinalBattery)
						}
						if res.EnergyUsed > in.Model.Capacity.F()+1e-6 {
							t.Errorf("%s seed=%d cap=%g: drew %v J of %v",
								label, seed, capacity, res.EnergyUsed, in.Model.Capacity)
						}
						for v, amt := range res.PerSensor {
							if amt > in.Net.Sensors[v].Data+1e-9 {
								t.Errorf("%s: sensor %d over-collected", label, v)
							}
						}
					}
				}
			}
		}
	}
}

// TestAdaptiveReplansCarryReferencePolicy: Instance.Reference reaches the
// executor's mid-flight replans. The plan is made unrecorded, so every
// candidate eval counted comes from a replan: on the reference path none
// is skipped, and the fast run's skip ledger closes the gap exactly. The
// executor's own counters agree with its result on both paths.
func TestAdaptiveReplansCarryReferencePolicy(t *testing.T) {
	base := adaptiveInstance(t, 4, 2e4)
	base.Delta = 12
	plan, err := (&core.Algorithm3{}).Plan(base)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Parse("wind:legs=0-,factor=1.5")
	if err != nil {
		t.Fatal(err)
	}
	counters := func(reference bool) map[string]int64 {
		in := *base
		reg := obs.NewRegistry()
		in.Obs = reg
		in.Reference = reference
		res := AdaptiveRun(&in, plan, AdaptiveOptions{Faults: sched, Margin: 0.01})
		if res.Replans == 0 {
			t.Fatal("scenario triggered no replan; test exercises nothing")
		}
		c := reg.Snapshot().Counters
		if c[CounterReplanTriggered] != int64(res.Replans) {
			t.Errorf("counter %s = %d, result says %d", CounterReplanTriggered, c[CounterReplanTriggered], res.Replans)
		}
		if c[CounterFaultsApplied] == 0 {
			t.Error("no fault activations counted under an always-on schedule")
		}
		return c
	}
	ref, fast := counters(true), counters(false)
	refEvals, refSkipped, refReused := ref[core.CounterCandidateEvals], ref[core.CounterScanSkippedDrained], ref[core.CounterScanReusedOffers]
	if refEvals == 0 || refSkipped != 0 || refReused != 0 {
		t.Fatalf("reference replans: evals %d, skipped %d, reused %d; want evals > 0, skipped and reused 0", refEvals, refSkipped, refReused)
	}
	fastEvals, fastSkipped, fastReused := fast[core.CounterCandidateEvals], fast[core.CounterScanSkippedDrained], fast[core.CounterScanReusedOffers]
	if fastSkipped == 0 || fastEvals+fastSkipped+fastReused != refEvals {
		t.Fatalf("fast replans: evals %d + skipped %d + reused %d, reference evals %d", fastEvals, fastSkipped, fastReused, refEvals)
	}
}

// TestFaultAndNoiseCompose: a segment's actual cost is nominal × noise
// factor × fault factor, in that order, reproduced here draw by draw.
func TestFaultAndNoiseCompose(t *testing.T) {
	net := simNet()
	plan := simPlan()
	em := energy.Default()
	in := &core.Instance{Net: net, Model: em, Delta: 25, K: 1}
	sched, err := faults.Parse("wind:legs=0-,factor=1.3;hover:stops=0-,factor=1.2")
	if err != nil {
		t.Fatal(err)
	}
	noise := Noise{Spread: 0.15, Seed: 21}
	res := AdaptiveRun(in, plan, AdaptiveOptions{
		Options: Options{Noise: noise},
		Faults:  sched,
		Margin:  0.99, // suppress replanning: this test checks pure pricing
	})
	if !res.Completed {
		t.Fatal("mission did not complete")
	}
	// Replay the same noise stream and compose the expected bill segment by
	// segment, in the executor's draw order: leg, hover, leg, hover, home.
	draw := noise.factors()
	var want float64
	pos := plan.Depot
	for i := range plan.Stops {
		stop := plan.Stops[i]
		want += em.TravelEnergy(units.Meters(pos.Dist(stop.Pos))).F() * (draw() * 1.3)
		want += em.HoverEnergy(units.Seconds(stop.Sojourn)).F() * (draw() * 1.2)
		pos = stop.Pos
	}
	want += em.TravelEnergy(units.Meters(pos.Dist(plan.Depot))).F() * (draw() * 1.3)
	if math.Abs(res.EnergyUsed-want) > 1e-9 {
		t.Errorf("energy %v, composed expectation %v", res.EnergyUsed, want)
	}
	if res.FaultsApplied == 0 {
		t.Error("no fault activations recorded")
	}
}

// TestNoiseCoversReplannedLegs: legs introduced by a mid-flight replan are
// subject to the same per-segment noise draws as nominal legs — the stream
// is indexed by executed segment, not by plan position.
func TestNoiseCoversReplannedLegs(t *testing.T) {
	in := adaptiveInstance(t, 6, 2e4)
	plan, err := (&core.Algorithm2{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	// A strong surcharge on the first legs forces a deviation and a replan.
	sched, err := faults.Parse("wind:legs=0-1,factor=1.9")
	if err != nil {
		t.Fatal(err)
	}
	em := in.Model
	res, events := adaptiveTraced(in, plan, AdaptiveOptions{
		Options: Options{Noise: Noise{Spread: 0.2, Seed: 5}},
		Faults:  sched,
		Margin:  0.01,
	})
	if res.Replans == 0 {
		t.Fatal("scenario triggered no replan; test exercises nothing")
	}
	// Walk the trace after the first replan: every flight leg's billed
	// energy, divided by its nominal cost and the (identity, legs ≥ 2)
	// fault factor, is the noise draw — which is ≠ 1 almost surely.
	replanAt := -1
	for i, ev := range events {
		if ev.kind == EventReplan.String() {
			replanAt = i
			break
		}
	}
	if replanAt < 0 {
		t.Fatal("no replan event in the trace")
	}
	noisy := 0
	for i := replanAt + 1; i < len(events); i++ {
		ev := events[i]
		if ev.kind != EventArrive.String() && ev.kind != EventReturn.String() {
			continue
		}
		prev := events[i-1]
		dist := prev.pos().Dist(ev.pos())
		nominal := em.TravelEnergy(units.Meters(dist))
		if nominal <= 0 {
			continue
		}
		factor := (ev.energy - prev.energy) / nominal.F()
		if math.Abs(factor-1) > 1e-6 {
			noisy++
		}
	}
	if noisy == 0 {
		t.Error("no replanned leg shows a noise factor; noise stream skipped the replanned tour")
	}
}

// TestAdaptiveDivertsInsteadOfDying: under a surcharge so harsh the plan's
// budget cannot cover it, the executor abandons stops and still lands with
// a non-negative battery, logging EventDivert.
func TestAdaptiveDivertsInsteadOfDying(t *testing.T) {
	in := adaptiveInstance(t, 2, 1.5e4)
	plan, err := (&core.Algorithm2{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stops) == 0 {
		t.Fatal("empty plan")
	}
	sched, err := faults.Parse("wind:legs=0-,factor=3.5")
	if err != nil {
		t.Fatal(err)
	}
	res, events := adaptiveTraced(in, plan, AdaptiveOptions{
		Faults: sched,
		// Replanning under a uniform 3.5× surcharge keeps plans tiny; with
		// replans disabled by a huge margin the divert path must trigger.
		Margin: 0.99,
	})
	if !res.Completed {
		t.Fatal("diverted mission must still complete at the depot")
	}
	if res.FinalBattery < 0 {
		t.Errorf("depot battery %v < 0", res.FinalBattery)
	}
	if !res.Diverted || res.StopsSkipped == 0 {
		t.Errorf("expected a divert, got %+v", res)
	}
	if hasEvent(events, EventBatteryDead) {
		t.Fatal("battery died")
	}
	if !hasEvent(events, EventDivert) {
		t.Error("no EventDivert in the trace")
	}
}

// TestAdaptiveEventKindStrings covers the executor-only telemetry kinds.
func TestAdaptiveEventKindStrings(t *testing.T) {
	if got := EventReplan.String(); got != "replan" {
		t.Errorf("EventReplan = %q", got)
	}
	if got := EventDivert.String(); got != "divert" {
		t.Errorf("EventDivert = %q", got)
	}
	for k := EventTakeoff; k <= EventDivert; k++ {
		if k.String() == "" {
			t.Errorf("empty String for %d", int(k))
		}
	}
}
