// Package mission plans campaigns of repeated sorties: the UAV flies a
// collection tour, returns to the depot, recharges (or swaps batteries),
// and flies again against whatever data is still in the field, until the
// field is drained or a sortie cap is hit. The paper plans a single tour
// ("the stored data ... will be collected periodically by a UAV"); this
// package operationalises the periodic part, with each sortie verified by
// the flight simulator before its collections are committed.
package mission

import (
	"fmt"
	"math"

	"uavdc/internal/core"
	"uavdc/internal/sensornet"
	"uavdc/internal/simulate"
)

// Campaign is the outcome of a multi-sortie mission.
type Campaign struct {
	// Sorties holds each flight's verified plan, in order.
	Sorties []*core.Plan
	// SortieVolumes is the simulator-confirmed collection per flight, MB.
	SortieVolumes []float64
	// Collected is the campaign total, MB.
	Collected float64
	// Remaining is the data left in the field after the campaign, MB.
	Remaining float64
	// Drained is true when the field was emptied (to within tolerance).
	Drained bool
	// Makespan is the campaign's total elapsed time in seconds: flight
	// and hover time of every sortie plus the recharge time between
	// consecutive sorties (not after the last).
	Makespan float64
}

// minVolume is the volume in MB below which the field counts as drained:
// a campaign stops when a sortie collects less, since everything
// reachable is already gone.
const minVolume = 1

// Options configures a campaign.
type Options struct {
	// MaxSorties caps the number of flights; ≤ 0 means 100.
	MaxSorties int
	// RechargeTime is the turnaround at the depot between sorties in
	// seconds (battery swap ≈ minutes, full recharge ≈ an hour). It
	// contributes to the campaign makespan only.
	RechargeTime float64
	// Simulate holds the physics the simulator verifies each sortie
	// against (altitude and radio model; zero value = the paper's
	// constant-rate, ground-level abstraction).
	Simulate simulate.Options
}

// Run plans and simulates sorties until the field drains. The instance's
// network is not modified; the campaign works on a private copy.
func Run(in *core.Instance, planner core.Planner, opts Options) (*Campaign, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if planner == nil {
		planner = &core.Algorithm3{}
	}
	maxSorties := opts.MaxSorties
	if maxSorties <= 0 {
		maxSorties = 100
	}

	// Private copy of the field so the caller's network is untouched.
	field := &sensornet.Network{
		Region:    in.Net.Region,
		Depot:     in.Net.Depot,
		Bandwidth: in.Net.Bandwidth,
		CommRange: in.Net.CommRange,
		Sensors:   append([]sensornet.Sensor(nil), in.Net.Sensors...),
	}
	work := *in
	work.Net = field

	camp := &Campaign{}
	for flight := 0; flight < maxSorties; flight++ {
		if field.TotalData() < minVolume {
			break
		}
		plan, err := planner.Plan(&work)
		if err != nil {
			return nil, fmt.Errorf("mission: sortie %d: %w", flight+1, err)
		}
		if err := core.ValidatePlanPhysics(field, in.Model, work.Physics(), plan); err != nil {
			return nil, fmt.Errorf("mission: sortie %d invalid: %w", flight+1, err)
		}
		res := simulate.Run(field, in.Model, plan, opts.Simulate)
		if !res.Completed {
			return nil, fmt.Errorf("mission: sortie %d aborted: %s", flight+1, res.AbortReason)
		}
		if res.Collected < minVolume {
			break // nothing reachable remains
		}
		if len(camp.Sorties) > 0 {
			camp.Makespan += opts.RechargeTime
		}
		camp.Makespan += res.MissionTime
		camp.Sorties = append(camp.Sorties, plan)
		camp.SortieVolumes = append(camp.SortieVolumes, res.Collected)
		camp.Collected += res.Collected
		for v, got := range res.PerSensor {
			field.Sensors[v].Data = math.Max(0, field.Sensors[v].Data-got)
		}
		field.InvalidateIndex()
	}
	camp.Remaining = field.TotalData()
	camp.Drained = camp.Remaining < minVolume
	return camp, nil
}
