package core

import (
	"fmt"

	"uavdc/internal/tsp"
	"uavdc/internal/units"
)

// BenchmarkCoverage is an ablation baseline that isolates *where* the
// framework's win comes from. Like BenchmarkPlanner it builds a
// Christofides tour over all sensors and prunes to the budget — but while
// hovering over a sensor it collects from every sensor within coverage
// range (the paper's simultaneous-collection framework), not just the one
// beneath it. Comparing the three planners separates the two effects the
// paper conflates:
//
//	BenchmarkPlanner     — neither framework nor placement optimisation
//	BenchmarkCoverage    — framework only (stops still glued to sensors)
//	Algorithm 2/3        — framework + optimised hovering placement
type BenchmarkCoverage struct{}

// Name implements Planner.
func (b *BenchmarkCoverage) Name() string { return "benchmark-coverage" }

// Plan implements Planner.
func (b *BenchmarkCoverage) Plan(in *Instance) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	rec := in.obsRecorder()
	so := newScanObs(rec)
	removals := rec.Counter(CounterBenchRemovals)
	r0 := in.EffectiveCoverRadius()
	pt, err := baselineTour(in, rec)
	if err != nil {
		return nil, fmt.Errorf("core: benchmark-coverage tsp: %w", err)
	}
	pt.RotateTo(0)

	// Iteratively: realise the coverage-aware plan along the tour, and
	// while it exceeds the budget prune the stop with the least collected
	// data per joule saved. Realisation is order-dependent (a sensor is
	// drained at the first stop covering it), so recompute after each
	// removal.
	for {
		tour := pt.Tour
		plan := b.realize(in, tour, r0)
		if plan.Energy(in.Model) <= in.Budget().F()+1e-9 {
			return plan, nil
		}
		// Score stops by loss/saving; plan.Stops parallels tour.Order[1:].
		bestIdx, bestScore := -1, 0.0
		for si := range plan.Stops {
			so.evals.Inc()
			stop := &plan.Stops[si]
			travelD := tsp.RemovalDelta(tour, si+1, pt.dist)
			saved := in.Model.TravelEnergy(units.Meters(travelD)) + in.Model.HoverEnergy(units.Seconds(stop.Sojourn))
			if saved <= 1e-12 {
				bestIdx = si
				break
			}
			score := stop.CollectedTotal() / saved.F()
			if bestIdx < 0 || score < bestScore {
				bestIdx, bestScore = si, score
			}
		}
		if bestIdx < 0 {
			return plan, nil // only the depot remains; plan is empty
		}
		removals.Inc()
		pt.removeAt(bestIdx+1, rec)
		pt.RotateTo(0)
	}
}

// realize walks the tour and assigns each sensor to the first stop whose
// coverage reaches it; sojourns are the residual drain of the assigned
// sensors.
func (b *BenchmarkCoverage) realize(in *Instance, tour tsp.Tour, r0 units.Meters) *Plan {
	net := in.Net
	plan := &Plan{Algorithm: b.Name(), Depot: net.Depot}
	claimed := make([]bool, len(net.Sensors))
	for _, it := range tour.Order {
		if it == 0 {
			continue
		}
		center := net.Sensors[it-1].Pos
		stop := Stop{Pos: center, LocID: -1}
		for _, v := range net.CoveredBy(center, r0.F()) {
			if claimed[v] {
				continue
			}
			claimed[v] = true
			d := net.Sensors[v].Data
			stop.Collected = append(stop.Collected, Collection{Sensor: v, Amount: d})
			if t := d / net.Bandwidth; t > stop.Sojourn {
				stop.Sojourn = t
			}
		}
		plan.Stops = append(plan.Stops, stop)
	}
	return plan
}
