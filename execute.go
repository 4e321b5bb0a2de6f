package uavdc

import (
	"fmt"

	"uavdc/internal/faults"
	"uavdc/internal/simulate"
	"uavdc/internal/trace"
)

// ExecuteOptions configures an adaptive mission execution: the plan is
// computed with the embedded planner Options, then flown under a declared
// fault schedule with mid-flight replanning.
type ExecuteOptions struct {
	Options
	// FaultSpec is the fault schedule in the textual grammar of
	// EXPERIMENTS.md ("wind:legs=0-,factor=1.25;upfail:stops=3-4", ...).
	// Empty executes fault-free; "default" selects the library's default
	// schedule.
	FaultSpec string
	// MarginFrac is the replan trigger threshold as a fraction of battery
	// capacity; 0 selects the default (2%).
	MarginFrac float64
	// NoiseSpread adds a per-segment multiplicative power disturbance
	// drawn uniformly from [1−spread, 1+spread]; 0 disables noise.
	NoiseSpread float64
	// NoiseSeed makes the disturbance sequence reproducible.
	NoiseSeed int64
}

// ExecuteResult summarises an adaptive mission execution.
type ExecuteResult struct {
	// PlannedMB is what the (fault-unaware) plan promised.
	PlannedMB float64
	// CollectedMB is what the adaptive execution actually gathered.
	CollectedMB float64
	// EnergyJ, FlightDistanceM, HoverTimeS, MissionTimeS describe the
	// executed mission.
	EnergyJ         float64
	FlightDistanceM float64
	HoverTimeS      float64
	MissionTimeS    float64
	// FinalBatteryJ is the battery back at the depot; the executor's
	// reachable-depot invariant keeps it non-negative under the declared
	// schedule.
	FinalBatteryJ float64
	// Replans counts mid-flight replans of the remaining tour.
	Replans int
	// FaultsApplied counts fault activations during the flight.
	FaultsApplied int
	// StopsSkipped counts planned stops abandoned to preserve the
	// fly-home reserve; Diverted is true when that happened.
	StopsSkipped int
	Diverted     bool
	// MaxDeviationJ is the largest gap observed between the plan's energy
	// accounting and the actual battery.
	MaxDeviationJ float64
}

// RetainedFrac returns CollectedMB/PlannedMB — the volume retained under
// the fault schedule relative to the fault-free promise (1 when nothing
// was planned).
func (r *ExecuteResult) RetainedFrac() float64 {
	if r.PlannedMB <= 0 {
		return 1
	}
	return r.CollectedMB / r.PlannedMB
}

// Execute plans a collection tour exactly like Plan, then flies it with the
// adaptive executor under the declared fault schedule: per-leg wind and
// hover surcharges, degraded or failed uploads, and no-hover zones, with
// the remaining tour replanned whenever the battery deviates from the
// plan's accounting by more than the margin. The executor always reserves
// the fly-home cost, so the mission ends at the depot with a non-negative
// battery regardless of the schedule. With an empty FaultSpec and zero
// NoiseSpread the execution reproduces the plan exactly.
func Execute(sc Scenario, uav UAV, opts ExecuteOptions) (*ExecuteResult, error) {
	spec := opts.FaultSpec
	if spec == "default" {
		spec = faults.DefaultSpec
	}
	var sched *faults.Schedule
	if spec != "" {
		var err error
		sched, err = faults.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("uavdc: %w", err)
		}
	}
	planned, err := Plan(sc, uav, opts.Options)
	if err != nil {
		return nil, err
	}
	in, err := sc.instance(uav, opts.Options)
	if err != nil {
		return nil, err
	}
	// The same recorder that captured the planning spans (inside Plan above)
	// captures the adaptive mission log and any replan spans.
	tr := opts.Trace.tracer()
	if tr.Enabled() {
		in.Obs = trace.With(in.Obs, tr)
	}
	sim := simulate.AdaptiveRun(in, planned.plan, simulate.AdaptiveOptions{
		Options: simulate.Options{
			Noise: simulate.Noise{Spread: opts.NoiseSpread, Seed: opts.NoiseSeed},
			Trace: tr,
		},
		Faults: sched,
		Margin: opts.MarginFrac,
	})
	if !sim.Completed {
		// Only an instance whose vertical overhead exceeds the battery is
		// refused; Plan has already validated against that.
		return nil, fmt.Errorf("uavdc: adaptive execution refused: %s", sim.AbortReason)
	}
	return &ExecuteResult{
		PlannedMB:       planned.CollectedMB,
		CollectedMB:     sim.Collected,
		EnergyJ:         sim.EnergyUsed,
		FlightDistanceM: sim.FlightDistance,
		HoverTimeS:      sim.HoverTime,
		MissionTimeS:    sim.MissionTime,
		FinalBatteryJ:   sim.FinalBattery,
		Replans:         sim.Replans,
		FaultsApplied:   sim.FaultsApplied,
		StopsSkipped:    sim.StopsSkipped,
		Diverted:        sim.Diverted,
		MaxDeviationJ:   sim.MaxDeviation,
	}, nil
}
