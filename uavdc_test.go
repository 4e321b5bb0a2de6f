package uavdc

import (
	"math"
	"testing"
)

func testScenario() Scenario { return RandomScenario(40, 300, 1) }

func TestRandomScenarioShape(t *testing.T) {
	sc := testScenario()
	if len(sc.Sensors) != 40 || sc.RegionSideM != 300 {
		t.Fatalf("scenario shape: %d sensors, side %v", len(sc.Sensors), sc.RegionSideM)
	}
	if sc.BandwidthMBps != 150 || sc.CoverRadiusM != 50 {
		t.Errorf("defaults: B=%v R0=%v", sc.BandwidthMBps, sc.CoverRadiusM)
	}
	if sc.DepotX != 150 || sc.DepotY != 150 {
		t.Errorf("depot not centred: (%v, %v)", sc.DepotX, sc.DepotY)
	}
	for i, s := range sc.Sensors {
		if s.X < 0 || s.X > 300 || s.Y < 0 || s.Y > 300 {
			t.Fatalf("sensor %d outside region", i)
		}
		if s.DataMB < 100 || s.DataMB >= 1000 {
			t.Fatalf("sensor %d data %v", i, s.DataMB)
		}
	}
	if sc.TotalDataMB() <= 0 {
		t.Error("TotalDataMB not positive")
	}
	// Determinism.
	if RandomScenario(40, 300, 1).Sensors[0] != sc.Sensors[0] {
		t.Error("RandomScenario not deterministic")
	}
}

func TestDefaultUAVMatchesPaper(t *testing.T) {
	u := DefaultUAV()
	if u.HoverPowerW != 150 || u.TravelPowerW != 100 || u.SpeedMS != 10 || u.CapacityJ != 3e5 {
		t.Errorf("DefaultUAV = %+v", u)
	}
}

func TestPlanAllAlgorithms(t *testing.T) {
	sc := testScenario()
	uav := DefaultUAV()
	uav.CapacityJ = 2e4
	for _, alg := range []Algorithm{AlgorithmNoOverlap, AlgorithmGreedy, AlgorithmPartial, AlgorithmBaseline} {
		res, err := Plan(sc, uav, Options{Algorithm: alg, DeltaM: 25})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.CollectedMB <= 0 {
			t.Errorf("%s collected nothing", alg)
		}
		if res.EnergyJ > uav.CapacityJ+1e-6 {
			t.Errorf("%s used %v J > capacity", alg, res.EnergyJ)
		}
		if res.CollectedMB > sc.TotalDataMB()+1e-6 {
			t.Errorf("%s collected more than exists", alg)
		}
		var stopSum float64
		for _, st := range res.Stops {
			stopSum += st.CollectedMB
		}
		if math.Abs(stopSum-res.CollectedMB) > 1e-6*(1+stopSum) {
			t.Errorf("%s stop totals %v != result %v", alg, stopSum, res.CollectedMB)
		}
	}
}

func TestPlanDefaults(t *testing.T) {
	sc := testScenario()
	uav := DefaultUAV()
	uav.CapacityJ = 2e4
	res, err := Plan(sc, uav, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "algorithm3" {
		t.Errorf("default algorithm = %s, want algorithm3", res.Algorithm)
	}
}

func TestPlanErrors(t *testing.T) {
	sc := testScenario()
	if _, err := Plan(sc, DefaultUAV(), Options{Algorithm: "bogus"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	bad := sc
	bad.BandwidthMBps = 0
	if _, err := Plan(bad, DefaultUAV(), Options{}); err == nil {
		t.Error("invalid scenario accepted")
	}
	badUAV := DefaultUAV()
	badUAV.SpeedMS = 0
	if _, err := Plan(sc, badUAV, Options{}); err == nil {
		t.Error("invalid UAV accepted")
	}
	outside := sc
	outside.Sensors = append([]Sensor(nil), sc.Sensors...)
	outside.Sensors[0].X = -10
	if _, err := Plan(outside, DefaultUAV(), Options{}); err == nil {
		t.Error("sensor outside region accepted")
	}
}

func TestPlanRefineNeverWorse(t *testing.T) {
	sc := testScenario()
	uav := DefaultUAV()
	uav.CapacityJ = 1.5e4
	plain, err := Plan(sc, uav, Options{DeltaM: 40})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Plan(sc, uav, Options{DeltaM: 40, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if refined.CollectedMB < plain.CollectedMB-1e-6 {
		t.Errorf("refine lost volume: %v vs %v", refined.CollectedMB, plain.CollectedMB)
	}
	if refined.FlightDistanceM > plain.FlightDistanceM+1e-6 {
		t.Errorf("refine lengthened flight: %v vs %v", refined.FlightDistanceM, plain.FlightDistanceM)
	}
}

func TestPlanMoreEnergyMoreData(t *testing.T) {
	sc := testScenario()
	uav := DefaultUAV()
	uav.CapacityJ = 1e4
	lo, err := Plan(sc, uav, Options{DeltaM: 25})
	if err != nil {
		t.Fatal(err)
	}
	uav.CapacityJ = 4e4
	hi, err := Plan(sc, uav, Options{DeltaM: 25})
	if err != nil {
		t.Fatal(err)
	}
	if hi.CollectedMB < lo.CollectedMB {
		t.Errorf("more energy collected less: %v vs %v", hi.CollectedMB, lo.CollectedMB)
	}
}

func TestPlanLNSAlgorithm(t *testing.T) {
	sc := testScenario()
	uav := DefaultUAV()
	uav.CapacityJ = 1e4
	base, err := Plan(sc, uav, Options{Algorithm: AlgorithmPartial, DeltaM: 25})
	if err != nil {
		t.Fatal(err)
	}
	lns, err := Plan(sc, uav, Options{Algorithm: AlgorithmLNS, DeltaM: 25})
	if err != nil {
		t.Fatal(err)
	}
	if lns.Algorithm != "lns" {
		t.Errorf("algorithm = %q", lns.Algorithm)
	}
	if lns.CollectedMB < base.CollectedMB-1e-6 {
		t.Errorf("LNS %v below its base %v", lns.CollectedMB, base.CollectedMB)
	}
}

func TestPlanWithVerticalEnergy(t *testing.T) {
	sc := testScenario()
	uav := DefaultUAV()
	uav.CapacityJ = 1.5e4
	uav.ClimbPowerW = 200
	uav.ClimbRateMS = 3
	free, err := Plan(sc, uav, Options{DeltaM: 25}) // altitude 0: no overhead
	if err != nil {
		t.Fatal(err)
	}
	paid, err := Plan(sc, uav, Options{DeltaM: 25, AltitudeM: 30})
	if err != nil {
		t.Fatal(err)
	}
	if paid.CollectedMB >= free.CollectedMB {
		t.Errorf("vertical overhead should cost volume: %v vs %v", paid.CollectedMB, free.CollectedMB)
	}
	if paid.EnergyJ > uav.CapacityJ+1e-6 {
		t.Errorf("over budget with climb: %v", paid.EnergyJ)
	}
}
