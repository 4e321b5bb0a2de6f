package core

import (
	"fmt"

	"uavdc/internal/energy"
	"uavdc/internal/hover"
	"uavdc/internal/obs"
	"uavdc/internal/radio"
	"uavdc/internal/sensornet"
	"uavdc/internal/units"
)

// Instance bundles everything a planner needs: the network, the UAV energy
// model, and the discretisation parameters.
type Instance struct {
	// Net is the aggregate sensor network (depot included).
	Net *sensornet.Network
	// Model is the UAV energy model; Model.Capacity is the budget E.
	Model energy.Model
	// Delta is the grid square edge length δ in metres.
	Delta units.Meters
	// CoverRadius is R0 in metres; 0 means "use Net.CommRange" (the
	// paper's experiments set R0 directly to the node range, i.e. an
	// altitude-0 abstraction).
	CoverRadius units.Meters //uavdc:allow deadexport every canonical key (uavdc-canon/1) encodes it; removing it would change the key bytes
	// K is the sojourn partition granularity for Algorithm 3 (≥ 1).
	// Planners that do not support partial collection ignore it.
	K int
	// Altitude is the hovering altitude H in metres. Zero reproduces the
	// paper's ground-level abstraction; a positive value shrinks the
	// effective coverage radius to sqrt(R²−H²) when CoverRadius is 0 and
	// lengthens the uplink slant paths when Radio is set.
	Altitude units.Meters
	// Radio is the uplink rate model; nil is the paper's constant
	// bandwidth B.
	Radio radio.Model
	// Obs receives instrumentation counters and timers from the planners;
	// nil disables recording (the default). Recording never changes a
	// planner's output, and counter totals are reproducible. Use an
	// *obs.Registry to collect, or any custom Recorder.
	Obs obs.Recorder
	// Reference runs every planner but Algorithm 1 (which has one path),
	// and the replanner, on its retained reference path: the unpruned
	// candidate scan with direct insertion pricing and tour polishing,
	// and the baselines' closure metric instead of their matrix. The fast
	// path only skips candidates whose award is provably zero and
	// substitutes arithmetic yielding the exact same float64s, so plans,
	// traces and every counter but the fast path's skip ledger are
	// bit-identical either way; the switch exists for differential testing
	// and for timing the fast path. Like Obs it is an execution policy,
	// not part of the problem, and stays out of Canonical.
	Reference bool
}

// Validate checks the instance's parameters.
func (in *Instance) Validate() error {
	if in.Net == nil {
		return fmt.Errorf("core: nil network")
	}
	if err := in.Net.Validate(); err != nil {
		return err
	}
	if err := in.Model.Validate(); err != nil {
		return err
	}
	if in.Delta <= 0 {
		return fmt.Errorf("core: delta must be positive, got %v", in.Delta)
	}
	if in.CoverRadius < 0 {
		return fmt.Errorf("core: negative cover radius %v", in.CoverRadius)
	}
	if in.K < 0 {
		return fmt.Errorf("core: negative K %d", in.K)
	}
	if in.Altitude < 0 {
		return fmt.Errorf("core: negative altitude %v", in.Altitude)
	}
	if in.Altitude.F() > in.Net.CommRange {
		return fmt.Errorf("core: altitude %v exceeds transmission range %v", in.Altitude, in.Net.CommRange)
	}
	if v := in.Model.VerticalOverhead(in.Altitude); v > in.Model.Capacity {
		return fmt.Errorf("core: vertical overhead %v J exceeds capacity %v J", v, in.Model.Capacity)
	}
	return nil
}

// Budget returns the energy available for the horizontal mission: the
// battery capacity minus the fixed ascent/descent overhead at the
// instance's altitude (zero under the paper's free-altitude model). All
// planners budget against this value.
func (in *Instance) Budget() units.Joules {
	return in.Model.Capacity - in.Model.VerticalOverhead(in.Altitude)
}

// EffectiveCoverRadius resolves the R0 actually used.
func (in *Instance) EffectiveCoverRadius() units.Meters {
	if in.CoverRadius > 0 {
		return in.CoverRadius
	}
	if in.Altitude > 0 {
		r0, err := hover.CoverageRadius(units.Meters(in.Net.CommRange), in.Altitude)
		if err == nil {
			return r0
		}
	}
	return units.Meters(in.Net.CommRange)
}

// Physics bundles the coverage and uplink model a plan is validated
// against.
func (in *Instance) Physics() Physics {
	return Physics{
		CoverRadius: in.EffectiveCoverRadius(),
		Altitude:    in.Altitude,
		Radio:       in.Radio,
	}
}

// buildCandidates constructs the hovering-location set for the instance.
func (in *Instance) buildCandidates() (*hover.Set, error) {
	return hover.Build(in.Net, in.Model, in.Delta, hover.Options{
		CoverRadius: in.EffectiveCoverRadius(),
		Altitude:    in.Altitude,
		Radio:       in.Radio,
	})
}

// Planner is a data-collection tour planner.
type Planner interface {
	// Name identifies the planner in experiment tables.
	Name() string
	// Plan computes a feasible collection plan for the instance.
	Plan(in *Instance) (*Plan, error)
}
