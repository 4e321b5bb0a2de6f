package core

import (
	"testing"

	"uavdc/internal/radio"
	"uavdc/internal/units"
)

// radioInstance is mediumInstance with the constant-rate assumption
// removed: the UAV hovers at 30 m and rates follow Shannon capacity over
// free-space loss.
func radioInstance(t testing.TB, seed uint64, capacity units.Joules) *Instance {
	t.Helper()
	in := mediumInstance(t, seed, capacity)
	in.Altitude = 30
	in.Radio = radio.Shannon{RefRate: units.BitsPerSecond(in.Net.Bandwidth), RefDist: 30, RefSNR: 100, PathLossExp: 2.7}
	return in
}

// TestPlannersValidUnderRadioModel: every planner must stay feasible when
// the physics get harsher (longer sojourns for far sensors, smaller R0).
func TestPlannersValidUnderRadioModel(t *testing.T) {
	for _, seed := range []uint64{4, 5} {
		in := radioInstance(t, seed, 1e5)
		for _, pl := range []Planner{&Algorithm1{}, &Algorithm2{}, &Algorithm3{}} {
			plan, err := pl.Plan(in)
			if err != nil {
				t.Fatalf("%s: %v", pl.Name(), err)
			}
			if err := ValidatePlanPhysics(in.Net, in.Model, in.Physics(), plan); err != nil {
				t.Errorf("%s seed=%d: %v", pl.Name(), seed, err)
			}
		}
	}
}

// TestRadioModelCostsVolume: with the same budget, realistic radio physics
// can only reduce (never increase) what the planner collects, because every
// per-sensor rate is at or below the calibration bandwidth.
func TestRadioModelCostsVolume(t *testing.T) {
	var idealSum, radioSum float64
	for _, seed := range []uint64{4, 5, 6} {
		ideal := mediumInstance(t, seed, 2e4)
		harsh := radioInstance(t, seed, 2e4)
		p1, err := (&Algorithm2{}).Plan(ideal)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := (&Algorithm2{}).Plan(harsh)
		if err != nil {
			t.Fatal(err)
		}
		idealSum += p1.Collected()
		radioSum += p2.Collected()
	}
	if radioSum > idealSum+1e-6 {
		t.Errorf("harsher physics collected more: %v vs %v", radioSum, idealSum)
	}
	if radioSum <= 0 {
		t.Error("radio model collected nothing")
	}
}

// constantRadio is an uplink model with one rate at every distance.
type constantRadio units.BitsPerSecond

func (c constantRadio) Rate(units.Meters) units.BitsPerSecond { return units.BitsPerSecond(c) }

// TestConstantRadioMatchesNoRadio: a constant model equal to the bandwidth
// must be byte-for-byte identical to the paper's abstraction (a nil
// model), though it takes the per-sensor rates path.
func TestConstantRadioMatchesNoRadio(t *testing.T) {
	plain := mediumInstance(t, 8, 3e4)
	constant := mediumInstance(t, 8, 3e4)
	constant.Radio = constantRadio(constant.Net.Bandwidth)
	p1, err := (&Algorithm3{}).Plan(plain)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := (&Algorithm3{}).Plan(constant)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Collected() != p2.Collected() || len(p1.Stops) != len(p2.Stops) {
		t.Errorf("constant radio differs from none: %v/%d vs %v/%d",
			p1.Collected(), len(p1.Stops), p2.Collected(), len(p2.Stops))
	}
}

func TestInstanceAltitudeValidation(t *testing.T) {
	in := mediumInstance(t, 1, 1e4)
	in.Altitude = -1
	if in.Validate() == nil {
		t.Error("negative altitude accepted")
	}
	in = mediumInstance(t, 1, 1e4)
	in.Altitude = units.Meters(in.Net.CommRange + 1)
	if in.Validate() == nil {
		t.Error("altitude above range accepted")
	}
	in = mediumInstance(t, 1, 1e4)
	in.Altitude = 30
	// R0 = sqrt(50² − 30²) = 40.
	if got := in.EffectiveCoverRadius(); got < 39.99 || got > 40.01 {
		t.Errorf("EffectiveCoverRadius = %v, want 40", got)
	}
	ph := in.Physics()
	if ph.Altitude != 30 || ph.CoverRadius != in.EffectiveCoverRadius() {
		t.Errorf("Physics = %+v", ph)
	}
}
