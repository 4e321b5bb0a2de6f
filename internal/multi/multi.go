// Package multi plans data-collection missions for a fleet of UAVs sharing
// one depot: cluster-first, route-second. The sensor field is partitioned
// into one cluster per UAV (weighted k-means or the sweep heuristic), each
// cluster becomes a sub-instance over the same region and depot, and the
// chosen single-UAV planner from internal/core routes each UAV inside its
// cluster. Because clusters partition the sensors, no two UAVs ever collect
// the same byte and the combined plan is feasible whenever the per-UAV
// plans are.
//
// This extends the paper (which deploys a single UAV) along the fleet
// direction its related-work section attributes to Mozaffari et al.
package multi

import (
	"fmt"

	"uavdc/internal/cluster"
	"uavdc/internal/core"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
)

// Strategy selects the partitioning method.
type Strategy int

const (
	// StrategyKMeans partitions with weighted k-means (k-means++
	// seeding): compact clusters, possibly unbalanced loads.
	StrategyKMeans Strategy = iota
	// StrategySweep partitions into angular sectors around the depot,
	// balancing per-UAV data volume: balanced loads, possibly stretched
	// clusters.
	StrategySweep
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyKMeans:
		return "kmeans"
	case StrategySweep:
		return "sweep"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Plan is a fleet mission: one per-UAV plan per cluster.
type Plan struct {
	// PerUAV holds one plan per fleet member, in cluster order. A UAV
	// whose cluster is empty gets an empty plan.
	PerUAV []*core.Plan
	// SensorOwner[v] is the UAV index assigned sensor v.
	SensorOwner []int
}

// Collected returns the fleet's total collected volume in MB.
func (p *Plan) Collected() float64 {
	var sum float64
	for _, up := range p.PerUAV {
		sum += up.Collected()
	}
	return sum
}

// Options configures fleet planning.
type Options struct {
	// Fleet is the number of UAVs (≥ 1). Every UAV uses the instance's
	// energy model (one full battery each).
	Fleet int
	// Strategy picks the partitioner; the zero value is k-means.
	Strategy Strategy
	// Seed drives the k-means seeding; ignored by sweep.
	Seed uint64
	// Base is the single-UAV planner routed inside each cluster; nil
	// means Algorithm 3 with the instance's K.
	Base core.Planner
}

// PlanFleet partitions the instance's sensors and plans every UAV's tour.
func PlanFleet(in *core.Instance, opts Options) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if opts.Fleet < 1 {
		return nil, fmt.Errorf("multi: fleet size must be ≥ 1, got %d", opts.Fleet)
	}
	base := opts.Base
	if base == nil {
		base = &core.Algorithm3{}
	}

	pts := in.Net.Positions()
	weights := make([]float64, len(in.Net.Sensors))
	for i, s := range in.Net.Sensors {
		weights[i] = s.Data
	}
	var asg *cluster.Assignment
	var err error
	switch opts.Strategy {
	case StrategyKMeans:
		asg, err = cluster.KMeans(pts, weights, opts.Fleet, rng.New(opts.Seed).Split("multi-kmeans"))
	case StrategySweep:
		asg, err = cluster.Sweep(pts, weights, opts.Fleet, in.Net.Depot)
	default:
		return nil, fmt.Errorf("multi: unknown strategy %v", opts.Strategy)
	}
	if err != nil {
		return nil, err
	}

	out := &Plan{
		PerUAV:      make([]*core.Plan, opts.Fleet),
		SensorOwner: make([]int, len(in.Net.Sensors)),
	}
	for u := 0; u < opts.Fleet; u++ {
		var members []int
		if u < asg.K {
			members = asg.Members(u)
		}
		// Build the sub-network: only this cluster's sensors, same
		// region, depot, and radio parameters.
		sub := &sensornet.Network{
			Region:    in.Net.Region,
			Depot:     in.Net.Depot,
			Bandwidth: in.Net.Bandwidth,
			CommRange: in.Net.CommRange,
			Sensors:   make([]sensornet.Sensor, len(members)),
		}
		for i, v := range members {
			sub.Sensors[i] = in.Net.Sensors[v]
			out.SensorOwner[v] = u
		}
		subIn := *in
		subIn.Net = sub
		plan, err := base.Plan(&subIn)
		if err != nil {
			return nil, fmt.Errorf("multi: uav %d: %w", u, err)
		}
		// Remap the sub-network sensor ids back to the field's ids.
		for si := range plan.Stops {
			for ci := range plan.Stops[si].Collected {
				plan.Stops[si].Collected[ci].Sensor = members[plan.Stops[si].Collected[ci].Sensor]
			}
		}
		out.PerUAV[u] = plan
	}
	return out, nil
}

// Validate re-checks every per-UAV plan against the full field and the
// cluster disjointness (no sensor collected by two UAVs).
func (p *Plan) Validate(in *core.Instance) error {
	seen := make(map[int]int)
	for u, up := range p.PerUAV {
		if err := core.ValidatePlanPhysics(in.Net, in.Model, in.Physics(), up); err != nil {
			return fmt.Errorf("multi: uav %d: %w", u, err)
		}
		for _, stop := range up.Stops {
			for _, c := range stop.Collected {
				if prev, ok := seen[c.Sensor]; ok && prev != u {
					return fmt.Errorf("multi: sensor %d collected by uav %d and uav %d", c.Sensor, prev, u)
				}
				seen[c.Sensor] = u
			}
		}
	}
	return nil
}
