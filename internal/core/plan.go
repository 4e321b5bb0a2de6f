// Package core implements the paper's contribution: the data-collection
// maximisation planners. Algorithm 1 solves the no-overlap variant by
// reduction to rooted orienteering on the auxiliary energy graph
// (Section IV); Algorithm 2 is the ratio-greedy heuristic for the
// overlapping variant (Section V); Algorithm 3 extends it to partial
// collection through virtual hovering locations (Section VI); Benchmark is
// the evaluation baseline (Section VII-A) that prunes a full TSP tour over
// the sensor nodes.
//
// Every planner returns a Plan — the closed tour with per-stop sojourn
// times and per-sensor collected volumes — which ValidatePlan re-checks
// independently against the physical model.
package core

import (
	"fmt"
	"math"

	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/radio"
	"uavdc/internal/sensornet"
	"uavdc/internal/units"
)

// Collection records data taken from one sensor at one stop.
type Collection struct {
	// Sensor is the index into the network's sensor slice.
	Sensor int
	// Amount is the volume collected, in MB.
	Amount float64
}

// Stop is one hovering stop of the plan.
type Stop struct {
	// Pos is the ground projection of the hovering position.
	Pos geom.Point
	// LocID is the hover-candidate id that produced this stop, or -1 when
	// the stop was placed directly (e.g. the benchmark hovers over
	// sensors, not grid centres).
	LocID int
	// Sojourn is the hover duration in seconds.
	Sojourn float64
	// Collected lists the per-sensor volumes gathered during the stop.
	Collected []Collection
}

// CollectedTotal returns the stop's total gathered volume in MB.
func (s *Stop) CollectedTotal() float64 {
	var sum float64
	for _, c := range s.Collected {
		sum += c.Amount
	}
	return sum
}

// Plan is a closed UAV tour: depot → Stops in order → depot.
type Plan struct {
	// Algorithm names the planner that produced the plan.
	Algorithm string
	// Depot is the tour's start and end position.
	Depot geom.Point
	// Stops is the visiting order.
	Stops []Stop
}

// FlightDistance returns the closed-tour flight length in metres.
func (p *Plan) FlightDistance() float64 {
	if len(p.Stops) == 0 {
		return 0
	}
	dist := p.Depot.Dist(p.Stops[0].Pos)
	for i := 1; i < len(p.Stops); i++ {
		dist += p.Stops[i-1].Pos.Dist(p.Stops[i].Pos)
	}
	return dist + p.Stops[len(p.Stops)-1].Pos.Dist(p.Depot)
}

// HoverTime returns the total hover duration in seconds.
func (p *Plan) HoverTime() float64 {
	var sum float64
	for i := range p.Stops {
		sum += p.Stops[i].Sojourn
	}
	return sum
}

// Energy returns the plan's total energy demand under em, in J. Plan and
// its methods are a typed-world boundary: they speak plain float64 for
// the exporters, validators, and simulators that consume plans.
func (p *Plan) Energy(em energy.Model) float64 {
	return em.TourEnergy(units.Meters(p.FlightDistance()), units.Seconds(p.HoverTime())).F()
}

// Duration returns the mission time T = T_t + T_h in seconds.
//
//uavdc:allow deadexport test oracle: the mission and simulate tests check makespan and mission time against it
func (p *Plan) Duration(em energy.Model) float64 {
	return em.TravelTime(units.Meters(p.FlightDistance())).F() + p.HoverTime()
}

// Collected returns the total gathered volume in MB, summed over stops.
func (p *Plan) Collected() float64 {
	var sum float64
	for i := range p.Stops {
		sum += p.Stops[i].CollectedTotal()
	}
	return sum
}

// CollectedBySensor returns the per-sensor totals, indexed like the
// network's sensor slice (n is the sensor count).
func (p *Plan) CollectedBySensor(n int) []float64 {
	out := make([]float64, n)
	for i := range p.Stops {
		for _, c := range p.Stops[i].Collected {
			if c.Sensor >= 0 && c.Sensor < n {
				out[c.Sensor] += c.Amount
			}
		}
	}
	return out
}

// volumeTolerance absorbs float accumulation error in validation, in MB.
const volumeTolerance = 1e-6

// energyTolerance absorbs float accumulation error in validation, in J.
const energyTolerance = 1e-6

// Physics is the coverage and uplink model a plan is validated against:
// the projected coverage radius R0, the hovering altitude H, and the
// uplink rate model (nil = the network's constant bandwidth B).
type Physics struct {
	CoverRadius units.Meters
	Altitude    units.Meters
	Radio       radio.Model
}

// rateFor returns the uplink rate for a sensor at ground distance d from
// the hovering position.
func (ph Physics) rateFor(net *sensornet.Network, groundDist units.Meters) units.BitsPerSecond {
	if ph.Radio == nil {
		return units.BitsPerSecond(net.Bandwidth)
	}
	return ph.Radio.Rate(radio.SlantDist(groundDist, ph.Altitude))
}

// ValidatePlan independently re-checks a plan against the paper's constant-
// bandwidth physical model; see ValidatePlanPhysics for the general form.
func ValidatePlan(net *sensornet.Network, em energy.Model, coverRadius units.Meters, p *Plan) error {
	return ValidatePlanPhysics(net, em, Physics{CoverRadius: coverRadius}, p)
}

// ValidatePlanPhysics independently re-checks a plan against the physical
// model:
//
//  1. total energy (flight at η_t/v plus hover at η_h) within capacity;
//  2. every collection comes from a sensor within R0 of its stop;
//  3. no sensor yields more than its stored volume in total;
//  4. no stop takes more from one sensor than rate × sojourn allows, where
//     the rate is the network bandwidth or, with a radio model, the rate
//     at the sensor's slant distance;
//  5. sojourns are non-negative and stops lie inside the region.
//
// Planners must never rely on their own accounting being validated —
// this function recomputes everything from the network and plan geometry.
func ValidatePlanPhysics(net *sensornet.Network, em energy.Model, ph Physics, p *Plan) error {
	if err := net.Validate(); err != nil {
		return err
	}
	if err := em.Validate(); err != nil {
		return err
	}
	coverRadius := ph.CoverRadius
	if coverRadius <= 0 {
		return fmt.Errorf("core: cover radius must be positive, got %v", coverRadius)
	}
	if got := p.Energy(em) + em.VerticalOverhead(ph.Altitude).F(); got > em.Capacity.F()+energyTolerance+1e-9*em.Capacity.F() {
		return fmt.Errorf("core: plan energy %.3f J (incl. vertical overhead) exceeds capacity %.3f J", got, em.Capacity)
	}
	perSensor := make([]float64, len(net.Sensors))
	for si := range p.Stops {
		stop := &p.Stops[si]
		if stop.Sojourn < 0 || math.IsNaN(stop.Sojourn) {
			return fmt.Errorf("core: stop %d has invalid sojourn %v", si, stop.Sojourn)
		}
		if !net.Region.Contains(stop.Pos) {
			return fmt.Errorf("core: stop %d at %v outside region", si, stop.Pos)
		}
		seen := make(map[int]bool, len(stop.Collected))
		for _, c := range stop.Collected {
			if c.Sensor < 0 || c.Sensor >= len(net.Sensors) {
				return fmt.Errorf("core: stop %d collects from unknown sensor %d", si, c.Sensor)
			}
			if seen[c.Sensor] {
				return fmt.Errorf("core: stop %d lists sensor %d twice", si, c.Sensor)
			}
			seen[c.Sensor] = true
			if c.Amount < 0 || math.IsNaN(c.Amount) {
				return fmt.Errorf("core: stop %d sensor %d invalid amount %v", si, c.Sensor, c.Amount)
			}
			d := units.Meters(net.Sensors[c.Sensor].Pos.Dist(stop.Pos))
			if d > coverRadius+1e-9 {
				return fmt.Errorf("core: stop %d collects from sensor %d at distance %.3f > R0 %.3f", si, c.Sensor, d, coverRadius)
			}
			if limit := units.Transfer(ph.rateFor(net, d), units.Seconds(stop.Sojourn)).F(); c.Amount > limit+volumeTolerance {
				return fmt.Errorf("core: stop %d sensor %d amount %.6f exceeds rate×sojourn %.6f", si, c.Sensor, c.Amount, limit)
			}
			perSensor[c.Sensor] += c.Amount
		}
	}
	for v, got := range perSensor {
		if got > net.Sensors[v].Data+volumeTolerance {
			return fmt.Errorf("core: sensor %d yielded %.6f MB but stores only %.6f MB", v, got, net.Sensors[v].Data)
		}
	}
	return nil
}
