// Package energy models the UAV's energy consumption: a constant hover
// power η_h, a constant travel power η_t at fixed cruising speed, and a
// battery capacity E (Section III-A of the paper). The default constants
// follow the paper's experimental settings, which cite the DJI Phantom 4
// Pro specifications. Quantities carry internal/units types: powers are
// units.Watts, the speed units.MetersPerSecond, energies units.Joules.
package energy

import (
	"fmt"
	"math"

	"uavdc/internal/units"
)

// Model is the UAV energy model.
type Model struct {
	// HoverPower η_h is the power drawn while hovering, in J/s.
	HoverPower units.Watts
	// TravelPower η_t is the power drawn while flying, in J/s.
	TravelPower units.Watts
	// Speed is the constant cruising speed, in m/s.
	Speed units.MetersPerSecond
	// Capacity E is the battery capacity, in J.
	Capacity units.Joules
	// ClimbPower is the power drawn while climbing or descending, in
	// J/s. Zero (with ClimbRate zero) reproduces the paper's model, in
	// which altitude transitions are free.
	ClimbPower units.Watts
	// ClimbRate is the vertical speed, in m/s.
	ClimbRate units.MetersPerSecond
}

// Default returns the paper's experimental model: η_t = 100 J/s,
// η_h = 150 J/s, 10 m/s cruising speed, and a 3×10⁵ J battery.
func Default() Model {
	return Model{HoverPower: 150, TravelPower: 100, Speed: 10, Capacity: 3e5}
}

// Validate reports whether the model's parameters are physically sensible.
func (m Model) Validate() error {
	switch {
	case !(m.HoverPower > 0) || math.IsInf(m.HoverPower.F(), 1):
		return fmt.Errorf("energy: hover power must be positive and finite, got %v", m.HoverPower)
	case !(m.TravelPower > 0) || math.IsInf(m.TravelPower.F(), 1):
		return fmt.Errorf("energy: travel power must be positive and finite, got %v", m.TravelPower)
	case !(m.Speed > 0) || math.IsInf(m.Speed.F(), 1):
		return fmt.Errorf("energy: speed must be positive and finite, got %v", m.Speed)
	case !(m.Capacity >= 0) || math.IsInf(m.Capacity.F(), 1):
		return fmt.Errorf("energy: capacity must be non-negative and finite, got %v", m.Capacity)
	case m.ClimbPower < 0 || math.IsInf(m.ClimbPower.F(), 1) || math.IsNaN(m.ClimbPower.F()):
		return fmt.Errorf("energy: invalid climb power %v", m.ClimbPower)
	case m.ClimbRate < 0 || math.IsInf(m.ClimbRate.F(), 1) || math.IsNaN(m.ClimbRate.F()):
		return fmt.Errorf("energy: invalid climb rate %v", m.ClimbRate)
	case (m.ClimbPower > 0) != (m.ClimbRate > 0):
		return fmt.Errorf("energy: climb power and climb rate must be set together (got %v, %v)", m.ClimbPower, m.ClimbRate)
	}
	return nil
}

// ClimbEnergy returns the energy to ascend (or descend — modelled
// symmetrically, a conservative choice) h metres: ClimbPower · h /
// ClimbRate. Zero when the vertical model is disabled.
func (m Model) ClimbEnergy(h units.Meters) units.Joules {
	if m.ClimbRate <= 0 || h <= 0 {
		return 0
	}
	return units.Joules(m.ClimbPower.F() * h.F() / m.ClimbRate.F())
}

// VerticalOverhead returns the fixed per-sortie cost of one ascent to and
// one descent from altitude h.
func (m Model) VerticalOverhead(h units.Meters) units.Joules {
	return 2 * m.ClimbEnergy(h)
}

// WithCapacity returns a copy of the model with the battery capacity set to
// e — the knob the Fig. 3/5 sweeps turn.
func (m Model) WithCapacity(e units.Joules) Model {
	m.Capacity = e
	return m
}

// TravelTime returns the time (s) to fly dist metres.
func (m Model) TravelTime(dist units.Meters) units.Seconds {
	return units.TravelTime(dist, m.Speed)
}

// TravelEnergy returns the energy (J) to fly dist metres: η_t · dist / v.
func (m Model) TravelEnergy(dist units.Meters) units.Joules {
	return units.Joules(m.TravelPower.F() * dist.F() / m.Speed.F())
}

// HoverEnergy returns the energy (J) to hover for d seconds: η_h · d.
func (m Model) HoverEnergy(d units.Seconds) units.Joules {
	return units.Energy(m.HoverPower, d)
}

// TourEnergy returns the energy of a closed tour with total flight distance
// dist and total hover time hover.
func (m Model) TourEnergy(dist units.Meters, hover units.Seconds) units.Joules {
	return m.TravelEnergy(dist) + m.HoverEnergy(hover)
}
