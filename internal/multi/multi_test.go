package multi

import (
	"testing"

	"uavdc/internal/core"
	"uavdc/internal/energy"
	"uavdc/internal/obs"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/units"
)

func fleetInstance(t testing.TB, seed uint64, capacity units.Joules) *core.Instance {
	t.Helper()
	p := sensornet.DefaultGenParams()
	p.NumSensors = 60
	p.Side = 350
	net, err := sensornet.Generate(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &core.Instance{Net: net, Model: energy.Default().WithCapacity(capacity), Delta: 20, K: 2}
}

func TestPlanFleetBasics(t *testing.T) {
	in := fleetInstance(t, 1, 1e4)
	for _, strat := range []Strategy{StrategyKMeans, StrategySweep} {
		fp, err := PlanFleet(in, Options{Fleet: 3, Strategy: strat, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(fp.PerUAV) != 3 {
			t.Fatalf("%v: %d plans", strat, len(fp.PerUAV))
		}
		if err := fp.Validate(in); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if fp.Collected() <= 0 || fp.Stops() <= 0 {
			t.Errorf("%v: empty fleet mission", strat)
		}
	}
}

func TestPlanFleetErrors(t *testing.T) {
	in := fleetInstance(t, 1, 1e4)
	if _, err := PlanFleet(in, Options{Fleet: 0}); err == nil {
		t.Error("fleet 0 accepted")
	}
	if _, err := PlanFleet(in, Options{Fleet: 2, Strategy: Strategy(9)}); err == nil {
		t.Error("unknown strategy accepted")
	}
	bad := *in
	bad.Delta = 0
	if _, err := PlanFleet(&bad, Options{Fleet: 2}); err == nil {
		t.Error("invalid instance accepted")
	}
	if Strategy(9).String() == "" || StrategyKMeans.String() != "kmeans" || StrategySweep.String() != "sweep" {
		t.Error("Strategy strings wrong")
	}
}

func TestFleetBeatsSingleUAV(t *testing.T) {
	// Under a tight per-UAV budget, 3 batteries must collect more than 1.
	in := fleetInstance(t, 3, 8e3)
	single, err := (&core.Algorithm3{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := PlanFleet(in, Options{Fleet: 3, Strategy: StrategySweep})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Collected() <= single.Collected() {
		t.Errorf("fleet of 3 collected %v, single UAV %v", fleet.Collected(), single.Collected())
	}
}

func TestFleetOfOneMatchesSingle(t *testing.T) {
	in := fleetInstance(t, 5, 1.2e4)
	single, err := (&core.Algorithm3{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := PlanFleet(in, Options{Fleet: 1, Strategy: StrategySweep})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Collected() != single.Collected() {
		t.Errorf("fleet of 1 %v != single %v", fleet.Collected(), single.Collected())
	}
}

func TestFleetSensorOwnershipDisjoint(t *testing.T) {
	in := fleetInstance(t, 8, 1e4)
	fp, err := PlanFleet(in, Options{Fleet: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every collection must come from a sensor the collecting UAV owns.
	for u, up := range fp.PerUAV {
		for _, stop := range up.Stops {
			for _, c := range stop.Collected {
				if fp.SensorOwner[c.Sensor] != u {
					t.Fatalf("uav %d collected sensor %d owned by %d", u, c.Sensor, fp.SensorOwner[c.Sensor])
				}
			}
		}
	}
}

func TestFleetWithBaselinePlanner(t *testing.T) {
	in := fleetInstance(t, 9, 1e4)
	fp, err := PlanFleet(in, Options{Fleet: 2, Base: &core.BenchmarkPlanner{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestFleetMoreUAVsNeverWorse(t *testing.T) {
	in := fleetInstance(t, 11, 6e3)
	prev := -1.0
	for _, m := range []int{1, 2, 4} {
		fp, err := PlanFleet(in, Options{Fleet: m, Strategy: StrategySweep})
		if err != nil {
			t.Fatal(err)
		}
		got := fp.Collected()
		// Sweep partitioning is a heuristic; allow 5% slack but demand an
		// overall upward trend.
		if got < prev*0.95 {
			t.Errorf("fleet %d collected %v, less than smaller fleet %v", m, got, prev)
		}
		if got > prev {
			prev = got
		}
	}
}

// TestPlanFleetCarriesReferencePolicy: Instance.Reference reaches the
// per-cluster sub-instances, so every cluster scans on the unpruned
// reference path (no skips) while the fast run's skip ledger closes the
// gap to the reference evals exactly.
func TestPlanFleetCarriesReferencePolicy(t *testing.T) {
	counters := func(reference bool) map[string]int64 {
		in := fleetInstance(t, 1, 1e4)
		reg := obs.NewRegistry()
		in.Obs = reg
		in.Reference = reference
		if _, err := PlanFleet(in, Options{Fleet: 3, Strategy: StrategyKMeans, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters
	}
	ref, fast := counters(true), counters(false)
	refEvals, refSkipped, refReused := ref[core.CounterCandidateEvals], ref[core.CounterScanSkippedDrained], ref[core.CounterScanReusedOffers]
	if refEvals == 0 || refSkipped != 0 || refReused != 0 {
		t.Fatalf("reference fleet: evals %d, skipped %d, reused %d; want evals > 0, skipped and reused 0", refEvals, refSkipped, refReused)
	}
	fastEvals, fastSkipped, fastReused := fast[core.CounterCandidateEvals], fast[core.CounterScanSkippedDrained], fast[core.CounterScanReusedOffers]
	if fastSkipped == 0 || fastEvals+fastSkipped+fastReused != refEvals {
		t.Fatalf("fast fleet: evals %d + skipped %d + reused %d, reference evals %d", fastEvals, fastSkipped, fastReused, refEvals)
	}
}

// Stops returns the total number of hovering stops across the fleet.
func (p *Plan) Stops() int {
	var n int
	for _, up := range p.PerUAV {
		n += len(up.Stops)
	}
	return n
}
