package energy

import (
	"math"
	"testing"

	"uavdc/internal/units"
)

func TestDefaultMatchesPaper(t *testing.T) {
	m := Default()
	if m.HoverPower != 150 || m.TravelPower != 100 || m.Speed != 10 || m.Capacity != 3e5 {
		t.Errorf("Default = %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

// TestValidateRejectsBadModels is the table-driven sweep over every way a
// model can be unphysical: zero or negative powers and speeds, NaN in any
// field, ±Inf in any field, and the ClimbPower/ClimbRate must-be-set-
// together pairing.
func TestValidateRejectsBadModels(t *testing.T) {
	cases := []struct {
		name string
		mut  func(Model) Model
	}{
		{"zero hover power", func(m Model) Model { m.HoverPower = 0; return m }},
		{"negative hover power", func(m Model) Model { m.HoverPower = -1; return m }},
		{"+Inf hover power", func(m Model) Model { m.HoverPower = units.Watts(math.Inf(1)); return m }},
		{"NaN hover power", func(m Model) Model { m.HoverPower = units.Watts(math.NaN()); return m }},
		{"zero travel power", func(m Model) Model { m.TravelPower = 0; return m }},
		{"-Inf travel power", func(m Model) Model { m.TravelPower = units.Watts(math.Inf(-1)); return m }},
		{"NaN travel power", func(m Model) Model { m.TravelPower = units.Watts(math.NaN()); return m }},
		{"zero speed", func(m Model) Model { m.Speed = 0; return m }},
		{"NaN speed", func(m Model) Model { m.Speed = units.MetersPerSecond(math.NaN()); return m }},
		{"+Inf speed", func(m Model) Model { m.Speed = units.MetersPerSecond(math.Inf(1)); return m }},
		{"negative capacity", func(m Model) Model { m.Capacity = -5; return m }},
		{"+Inf capacity", func(m Model) Model { m.Capacity = units.Joules(math.Inf(1)); return m }},
		{"NaN capacity", func(m Model) Model { m.Capacity = units.Joules(math.NaN()); return m }},
		{"negative climb power", func(m Model) Model { m.ClimbPower = -1; return m }},
		{"negative climb rate", func(m Model) Model { m.ClimbRate = -1; return m }},
		{"climb power without rate", func(m Model) Model { m.ClimbPower = 100; return m }},
		{"climb rate without power", func(m Model) Model { m.ClimbRate = 3; return m }},
		{"NaN climb power", func(m Model) Model { m.ClimbPower = units.Watts(math.NaN()); return m }},
		{"+Inf climb rate", func(m Model) Model { m.ClimbRate = units.MetersPerSecond(math.Inf(1)); return m }},
		{"NaN climb rate", func(m Model) Model { m.ClimbRate = units.MetersPerSecond(math.NaN()); return m }},
	}
	for _, c := range cases {
		if err := c.mut(Default()).Validate(); err == nil {
			t.Errorf("%s: bad model accepted", c.name)
		}
	}
	zero := Default()
	zero.Capacity = 0 // an empty battery is a valid (if sad) state
	if err := zero.Validate(); err != nil {
		t.Errorf("zero capacity rejected: %v", err)
	}
	climbing := Default()
	climbing.ClimbPower = 200
	climbing.ClimbRate = 4
	if err := climbing.Validate(); err != nil {
		t.Errorf("paired climb model rejected: %v", err)
	}
}

func TestEnergyAccounting(t *testing.T) {
	m := Default()
	// 100 m at 10 m/s = 10 s × 100 J/s = 1000 J.
	if got := m.TravelEnergy(100); got != 1000 {
		t.Errorf("TravelEnergy(100) = %v", got)
	}
	if got := m.TravelTime(100); got != 10 {
		t.Errorf("TravelTime(100) = %v", got)
	}
	if got := m.HoverEnergy(60); got != 9000 {
		t.Errorf("HoverEnergy(60) = %v", got)
	}
	if got := m.TourEnergy(100, 60); got != 10000 {
		t.Errorf("TourEnergy = %v", got)
	}
}

func TestWithCapacity(t *testing.T) {
	m := Default().WithCapacity(9e5)
	if m.Capacity != 9e5 {
		t.Errorf("Capacity = %v", m.Capacity)
	}
	if Default().Capacity != 3e5 {
		t.Error("WithCapacity mutated the receiver")
	}
}

func TestClimbEnergy(t *testing.T) {
	m := Default()
	if m.ClimbEnergy(100) != 0 || m.VerticalOverhead(50) != 0 {
		t.Error("paper model must have free altitude")
	}
	m.ClimbPower = 200
	m.ClimbRate = 4
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.ClimbEnergy(20); got != 1000 {
		t.Errorf("ClimbEnergy(20) = %v, want 1000", got)
	}
	if got := m.VerticalOverhead(20); got != 2000 {
		t.Errorf("VerticalOverhead(20) = %v, want 2000", got)
	}
	if got := m.ClimbEnergy(-5); got != 0 {
		t.Errorf("negative height should be free: %v", got)
	}
}

// TestClimbEnergySymmetry pins the documented modelling choice: the descent
// is priced by the same ClimbPower·h/ClimbRate expression as the ascent, so
// VerticalOverhead is exactly twice one transition at any altitude —
// including awkward ones where the division is inexact.
func TestClimbEnergySymmetry(t *testing.T) {
	m := Default()
	m.ClimbPower = 137.7
	m.ClimbRate = 2.3
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, h := range []units.Meters{0.1, 7.77, 20, 33.3, 151.5} {
		up := m.ClimbEnergy(h)
		down := m.ClimbEnergy(h) // simulate prices the descent with this same call
		if math.Float64bits(up.F()) != math.Float64bits(down.F()) {
			t.Errorf("ClimbEnergy(%v) not symmetric: %v vs %v", h, up, down)
		}
		if got, want := m.VerticalOverhead(h), up+down; math.Float64bits(got.F()) != math.Float64bits(want.F()) {
			t.Errorf("VerticalOverhead(%v) = %v, want up+down = %v", h, got, want)
		}
	}
}
