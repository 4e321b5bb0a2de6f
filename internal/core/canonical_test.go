package core

import (
	"testing"

	"uavdc/internal/canon"
	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/radio"
	"uavdc/internal/sensornet"
	"uavdc/internal/units"
)

func canonInstance() *Instance {
	return &Instance{
		Net: &sensornet.Network{
			Region:    geom.Square(200),
			Depot:     geom.Pt(100, 100),
			Bandwidth: 150,
			CommRange: 50,
			Sensors: []sensornet.Sensor{
				{Pos: geom.Pt(10, 20), Data: 300},
				{Pos: geom.Pt(150, 40), Data: 512.5},
			},
		},
		Model: energy.Default(),
		Delta: 10,
		K:     4,
	}
}

func TestCanonicalMapsInstance(t *testing.T) {
	in := canonInstance()
	ci, err := in.Canonical("partial", false)
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	if ci.MaxX != 200 || ci.DepotX != 100 || len(ci.Sensors) != 2 {
		t.Fatalf("geometry drifted: %+v", ci)
	}
	if ci.Sensors[1].Data != 512.5 || ci.CommRangeM != 50 {
		t.Fatalf("field drifted: %+v", ci)
	}
	if ci.HoverPowerW != in.Model.HoverPower.F() || ci.CapacityJ != in.Model.Capacity.F() {
		t.Fatalf("energy model drifted: %+v", ci)
	}
	if ci.DeltaM != 10 || ci.K != 4 || ci.Algorithm != "partial" || ci.Refine {
		t.Fatalf("knobs drifted: %+v", ci)
	}
}

func TestCanonicalRadioKinds(t *testing.T) {
	in := canonInstance()
	ci, err := in.Canonical("partial", false)
	if err != nil {
		t.Fatal(err)
	}
	baseKey := ci.Key()

	if ci.Radio.Kind != canon.RadioNone {
		t.Fatalf("nil radio canonicalised as %+v", ci.Radio)
	}

	in.Radio = radio.Shannon{RefRate: 150, RefDist: units.Meters(10), RefSNR: 100, PathLossExp: 2}
	cs, err := in.Canonical("partial", false)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Radio.Kind != canon.RadioShannon || cs.Radio.RefSNR != 100 || cs.Key() == baseKey {
		t.Fatalf("shannon radio not keyed: %+v", cs.Radio)
	}
}

type fakeRadio struct{}

func (fakeRadio) Rate(units.Meters) units.BitsPerSecond { return 1 }

func TestCanonicalRejectsUnknownRadio(t *testing.T) {
	in := canonInstance()
	in.Radio = fakeRadio{}
	if _, err := in.Canonical("partial", false); err == nil {
		t.Fatal("unknown radio model accepted")
	}
	if _, err := in.CanonKey("partial", false); err == nil {
		t.Fatal("CanonKey accepted unknown radio model")
	}
}

// TestCanonKeyIgnoresReference: the reference-path switch is an execution
// policy like Obs and Workers — it never changes the plan, so it must not
// split the cache identity.
func TestCanonKeyIgnoresReference(t *testing.T) {
	in := canonInstance()
	fast, err := in.CanonKey("partial", false)
	if err != nil {
		t.Fatal(err)
	}
	in.Reference = true
	ref, err := in.CanonKey("partial", false)
	if err != nil {
		t.Fatal(err)
	}
	if fast != ref {
		t.Fatalf("Reference changed the canonical key: %x vs %x", fast, ref)
	}
}
