// Package faults defines deterministic, seedable in-mission fault
// schedules for the flight simulator: structured disturbances beyond the
// multiplicative simulate.Noise. Each fault is a typed Event with an
// activation predicate (a leg-index range, an executed-stop range, a
// sensor, or a ground zone); events compose into a Schedule the adaptive
// executor consults at every flight leg, hover segment, and upload.
//
// The fault model is intentionally declarative: the executor can bound the
// worst case of a declared schedule (MaxLegFactor, MaxHoverFactor), which
// is what makes its reachable-depot guarantee hold by construction — the
// fly-home reserve is priced against the declared worst case, so a mission
// degrades to a shorter tour instead of dying mid-field.
//
// Schedules are built three ways: literally (composing Events), from the
// -faults command-line spec grammar (Parse), or pseudo-randomly from a
// seed (Random). All three are deterministic: the same spec or seed always
// replays the same schedule.
package faults

import (
	"fmt"
	"math"

	"uavdc/internal/geom"
)

// Kind labels a fault event type.
type Kind int

const (
	// KindWind multiplies the travel energy of every leg in the event's
	// leg range by Factor (headwind > 1, tailwind < 1).
	KindWind Kind = iota
	// KindHoverDrain multiplies the hover power at every executed stop in
	// the stop range by Factor (battery ageing, station-keeping wind).
	KindHoverDrain
	// KindUploadFail blocks the matching sensor's uploads entirely at
	// every executed stop in the stop range.
	KindUploadFail
	// KindBandwidth multiplies the matching sensor's uplink rate at every
	// executed stop in the stop range by Factor (< 1 degrades).
	KindBandwidth
	// KindDropout silences the matching sensor from stop AfterStop onward
	// — equivalent to an open-ended upload failure, kept distinct so
	// schedules read as intended.
	KindDropout
	// KindNoHover forbids hovering inside a circular ground zone: the UAV
	// may overfly it but collects nothing at stops inside.
	KindNoHover
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindWind:
		return "wind"
	case KindHoverDrain:
		return "hover"
	case KindUploadFail:
		return "upfail"
	case KindBandwidth:
		return "bw"
	case KindDropout:
		return "dropout"
	case KindNoHover:
		return "nohover"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Open marks the open end of a Range.
const Open = -1

// Range is an inclusive integer interval; To == Open means unbounded.
type Range struct {
	From, To int
}

// AllRange matches every index.
var AllRange = Range{From: 0, To: Open}

// Contains reports whether i lies in the range.
func (r Range) Contains(i int) bool {
	return i >= r.From && (r.To == Open || i <= r.To)
}

func (r Range) validate(what string) error {
	if r.From < 0 {
		return fmt.Errorf("faults: %s range starts at %d, must be ≥ 0", what, r.From)
	}
	if r.To != Open && r.To < r.From {
		return fmt.Errorf("faults: %s range %d-%d is inverted", what, r.From, r.To)
	}
	return nil
}

// AllSensors matches every sensor in sensor-scoped events.
const AllSensors = -1

// Event is one typed fault with its activation predicate. Which fields are
// meaningful depends on Kind: Legs for wind; Stops and Sensor for hover
// drain, upload failure, bandwidth, and dropout; Zone for no-hover.
type Event struct {
	Kind Kind
	// Legs is the flight-leg index range a wind event covers. Legs are
	// counted in execution order, the return leg included.
	Legs Range
	// Stops is the executed-stop index range for stop-scoped events.
	// Stops are counted in execution order, so the predicate stays
	// well-defined when mid-flight replanning rewrites the tour.
	Stops Range
	// Sensor restricts upload events to one sensor; AllSensors matches
	// every sensor.
	Sensor int
	// Factor is the multiplicative disturbance (wind, hover drain,
	// bandwidth). Must be positive and finite.
	Factor float64
	// Zone is the forbidden hover disk for KindNoHover.
	Zone geom.Circle
}

// Validate checks the event's parameters.
func (e Event) Validate() error {
	switch e.Kind {
	case KindWind:
		if err := e.Legs.validate("leg"); err != nil {
			return err
		}
		return validFactor(e.Factor)
	case KindHoverDrain, KindBandwidth:
		if err := e.Stops.validate("stop"); err != nil {
			return err
		}
		if e.Sensor < AllSensors {
			return fmt.Errorf("faults: invalid sensor %d", e.Sensor)
		}
		return validFactor(e.Factor)
	case KindUploadFail, KindDropout:
		if e.Sensor < AllSensors {
			return fmt.Errorf("faults: invalid sensor %d", e.Sensor)
		}
		return e.Stops.validate("stop")
	case KindNoHover:
		if !(e.Zone.R > 0) || math.IsInf(e.Zone.R, 1) || math.IsNaN(e.Zone.R) {
			return fmt.Errorf("faults: no-hover zone radius %v must be positive and finite", e.Zone.R)
		}
		if math.IsNaN(e.Zone.C.X) || math.IsNaN(e.Zone.C.Y) || math.IsInf(e.Zone.C.X, 0) || math.IsInf(e.Zone.C.Y, 0) {
			return fmt.Errorf("faults: no-hover zone centre %v is not finite", e.Zone.C)
		}
		return nil
	default:
		return fmt.Errorf("faults: unknown event kind %d", int(e.Kind))
	}
}

func validFactor(f float64) error {
	if !(f > 0) || math.IsInf(f, 1) || math.IsNaN(f) {
		return fmt.Errorf("faults: factor %v must be positive and finite", f)
	}
	return nil
}

// matchesSensor reports whether the event's sensor predicate covers v.
func (e Event) matchesSensor(v int) bool {
	return e.Sensor == AllSensors || e.Sensor == v
}

// Schedule is a composable set of fault events. The zero value and the nil
// pointer are both the empty schedule: every factor is 1, nothing fails,
// no zone is forbidden. Schedules are immutable once built and safe for
// concurrent readers.
type Schedule struct {
	Events []Event
}

// Validate checks every event.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Empty reports whether the schedule perturbs anything.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// LegFactor returns the composed travel-energy factor for flight leg
// `leg` (execution order, return leg included): the product of every
// active wind event's factor, 1 when none applies.
func (s *Schedule) LegFactor(leg int) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, e := range s.Events {
		if e.Kind == KindWind && e.Legs.Contains(leg) {
			f *= e.Factor
		}
	}
	return f
}

// HoverFactor returns the composed hover-power factor for the stop-th
// executed stop.
func (s *Schedule) HoverFactor(stop int) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, e := range s.Events {
		if e.Kind == KindHoverDrain && e.Stops.Contains(stop) {
			f *= e.Factor
		}
	}
	return f
}

// UploadFactor returns the composed uplink-rate factor for sensor v at the
// stop-th executed stop: 0 when an upload failure or dropout silences the
// sensor, otherwise the product of active bandwidth factors.
func (s *Schedule) UploadFactor(stop, sensor int) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, e := range s.Events {
		switch e.Kind {
		case KindUploadFail, KindDropout:
			if e.matchesSensor(sensor) && e.Stops.Contains(stop) {
				return 0
			}
		case KindBandwidth:
			if e.matchesSensor(sensor) && e.Stops.Contains(stop) {
				f *= e.Factor
			}
		}
	}
	return f
}

// NoHoverAt reports whether hovering is forbidden at ground position p.
func (s *Schedule) NoHoverAt(p geom.Point) bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == KindNoHover && e.Zone.Contains(p) {
			return true
		}
	}
	return false
}

// MaxLegFactor returns an upper bound on LegFactor over every leg index:
// the product of max(factor, 1) over all wind events (overlapping ranges
// compose multiplicatively). The adaptive executor prices its fly-home
// reserve with this bound.
func (s *Schedule) MaxLegFactor() float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, e := range s.Events {
		if e.Kind == KindWind && e.Factor > 1 {
			f *= e.Factor
		}
	}
	return f
}
