// Package simulate executes a collection Plan against the physical model
// as an event-driven flight simulation, independently of the planners'
// own accounting. It is the ground truth the test suite uses to cross-check
// every planner: flight legs drain the battery at η_t, hover segments at
// η_h, and during a hover every scheduled sensor uploads on its own OFDMA
// channel at bandwidth B until its scheduled amount (or the battery) runs
// out. If the battery empties mid-mission the simulator reports exactly
// where and how much had been collected — planners are required to never
// trigger that.
package simulate

import (
	"fmt"
	"math"

	"uavdc/internal/core"
	"uavdc/internal/energy"
	"uavdc/internal/geom"
	"uavdc/internal/radio"
	"uavdc/internal/sensornet"
	"uavdc/internal/trace"
	"uavdc/internal/units"
)

// MissionEventPrefix prefixes every trace event the simulators emit; the
// full name is the prefix plus the EventKind's String() ("mission/arrive",
// "mission/replan", ...). Every attribute is deterministic for a fixed
// instance, plan, fault schedule, and noise seed — t_sim is simulated
// seconds since takeoff, not wall time — so mission event streams strip to
// byte-identical bytes like the planner spans.
const MissionEventPrefix = "mission/"

// EventKind labels a mission trace event.
type EventKind int

const (
	// EventTakeoff marks mission start at the depot.
	EventTakeoff EventKind = iota
	// EventArrive marks arrival at a stop.
	EventArrive
	// EventCollect marks the end of a hover segment.
	EventCollect
	// EventReturn marks arrival back at the depot.
	EventReturn
	// EventBatteryDead marks battery exhaustion mid-mission.
	EventBatteryDead
	// EventReplan marks a mid-flight replanning of the remaining tour
	// (adaptive executor only).
	EventReplan
	// EventDivert marks the adaptive executor abandoning the remaining
	// stops to preserve its fly-home reserve.
	EventDivert
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventTakeoff:
		return "takeoff"
	case EventArrive:
		return "arrive"
	case EventCollect:
		return "collect"
	case EventReturn:
		return "return"
	case EventBatteryDead:
		return "battery-dead"
	case EventReplan:
		return "replan"
	case EventDivert:
		return "divert"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Result is the outcome of a simulated mission.
type Result struct {
	// Completed is true when the UAV executed every stop and returned to
	// the depot with a non-negative battery.
	Completed bool
	// AbortReason is empty on success.
	AbortReason string
	// EnergyUsed is total energy drawn, J.
	EnergyUsed float64
	// FlightDistance is total distance flown, m.
	FlightDistance float64
	// HoverTime is total hover duration, s.
	HoverTime float64
	// MissionTime is total elapsed time, s.
	MissionTime float64
	// Collected is total data gathered, MB.
	Collected float64
	// PerSensor is data gathered per sensor, MB.
	PerSensor []float64
}

// Options configures a simulation run.
type Options struct {
	// Altitude is the hovering altitude H used for slant-distance rate
	// computation when Radio is set.
	Altitude units.Meters
	// Radio is the uplink rate model; nil simulates the paper's constant
	// bandwidth B.
	Radio radio.Model
	// Noise perturbs the power draw of every flight leg and hover
	// segment; the zero value is the deterministic nameplate model.
	Noise Noise
	// Trace, when non-nil and enabled, receives the mission event log as
	// MissionEventPrefix events: one per takeoff, arrival, end of hover,
	// return, and battery death, each with the simulated time (t_sim),
	// stop index (-1 at the depot), position (x, y), cumulative energy
	// (energy_j) and volume (collected_mb), and the battery (battery_j).
	// Recording never changes the simulation outcome.
	Trace trace.Tracer
}

// rateFor returns the uplink rate for a sensor at the given ground
// distance from the hovering UAV.
func (o Options) rateFor(net *sensornet.Network, groundDist units.Meters) units.BitsPerSecond {
	if o.Radio == nil {
		return units.BitsPerSecond(net.Bandwidth)
	}
	return o.Radio.Rate(radio.SlantDist(groundDist, o.Altitude))
}

// Run simulates the plan. The plan is not required to be valid: physical
// limits are enforced during execution (a collection amount beyond
// bandwidth×sojourn is truncated; an empty battery aborts the mission), so
// the result reflects what a real mission would achieve.
func Run(net *sensornet.Network, em energy.Model, plan *core.Plan, opts Options) Result {
	res := Result{PerSensor: make([]float64, len(net.Sensors))}
	battery := em.Capacity
	pos := plan.Depot
	var now units.Seconds

	tr := trace.OrDiscard(opts.Trace)
	emit := tr.Enabled()
	log := func(kind EventKind, stop int) {
		if emit {
			tr.Event(MissionEventPrefix+kind.String(),
				trace.Num("t_sim", now.F()),
				trace.Int("stop", stop),
				trace.Num("x", pos.X),
				trace.Num("y", pos.Y),
				trace.Num("energy_j", res.EnergyUsed),
				trace.Num("collected_mb", res.Collected),
				trace.Num("battery_j", battery.F()))
		}
	}
	abort := func(reason string) Result {
		res.AbortReason = reason
		res.MissionTime = now.F()
		log(EventBatteryDead, -1)
		return res
	}
	nextFactor := opts.Noise.factors()
	// fly attempts a leg to dst; returns false when the battery dies en
	// route (position advances to the point of failure).
	fly := func(dst geom.Point) bool {
		dist := pos.Dist(dst)
		need := units.Scale(em.TravelEnergy(units.Meters(dist)), nextFactor())
		if need <= battery+1e-12 {
			battery -= need
			res.EnergyUsed += need.F()
			res.FlightDistance += dist
			now += em.TravelTime(units.Meters(dist))
			pos = dst
			return true
		}
		frac := 0.0
		if need > 0 {
			frac = units.Ratio(battery, need)
		}
		res.EnergyUsed += battery.F()
		res.FlightDistance += dist * frac
		now += em.TravelTime(units.Meters(dist * frac))
		pos = pos.Lerp(dst, frac)
		battery = 0
		return false
	}

	log(EventTakeoff, -1)
	// Ascend to the hovering altitude (free under the paper's model, paid
	// when the energy model has a vertical component).
	if climb := em.ClimbEnergy(opts.Altitude); climb > 0 {
		if climb > battery+1e-12 {
			res.EnergyUsed += battery.F()
			battery = 0
			return abort("battery died on ascent")
		}
		battery -= climb
		res.EnergyUsed += climb.F()
		now += units.TravelTime(opts.Altitude, em.ClimbRate)
	}
	for si := range plan.Stops {
		stop := &plan.Stops[si]
		if !fly(stop.Pos) {
			return abort(fmt.Sprintf("battery died flying to stop %d", si))
		}
		log(EventArrive, si)
		// Hover: the achievable duration is capped by the battery, with
		// this segment's power disturbance applied.
		want := units.Seconds(stop.Sojourn)
		hoverFactor := nextFactor()
		canAfford := want
		if need := units.Scale(em.HoverEnergy(want), hoverFactor); need > battery {
			canAfford = units.Duration(battery, units.Scale(em.HoverPower, hoverFactor))
		}
		// Uploads proceed in parallel; each sensor delivers at most
		// rate × hover-time, at most its scheduled amount, at most its
		// stored volume minus what it already gave.
		for _, c := range stop.Collected {
			if c.Sensor < 0 || c.Sensor >= len(net.Sensors) {
				continue
			}
			rate := opts.rateFor(net, units.Meters(net.Sensors[c.Sensor].Pos.Dist(stop.Pos)))
			amt := units.Min(units.Bits(c.Amount), units.Transfer(rate, canAfford)).F()
			remain := net.Sensors[c.Sensor].Data - res.PerSensor[c.Sensor]
			amt = math.Min(amt, math.Max(remain, 0))
			res.PerSensor[c.Sensor] += amt
			res.Collected += amt
		}
		used := units.Scale(em.HoverEnergy(canAfford), hoverFactor)
		battery -= used
		res.EnergyUsed += used.F()
		res.HoverTime += canAfford.F()
		now += canAfford
		log(EventCollect, si)
		if canAfford < want-1e-12 {
			return abort(fmt.Sprintf("battery died hovering at stop %d", si))
		}
	}
	if !fly(plan.Depot) {
		return abort("battery died on the return leg")
	}
	// Descend back to the ground (symmetric cost to the ascent).
	if descend := em.ClimbEnergy(opts.Altitude); descend > 0 {
		if descend > battery+1e-12 {
			res.EnergyUsed += battery.F()
			battery = 0
			return abort("battery died on descent")
		}
		battery -= descend
		res.EnergyUsed += descend.F()
		now += units.TravelTime(opts.Altitude, em.ClimbRate)
	}
	log(EventReturn, -1)
	res.Completed = true
	res.MissionTime = now.F()
	return res
}
