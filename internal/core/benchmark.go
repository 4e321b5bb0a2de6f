package core

import (
	"fmt"
	"slices"

	"uavdc/internal/geom"
	"uavdc/internal/obs"
	"uavdc/internal/trace"
	"uavdc/internal/tsp"
	"uavdc/internal/units"
)

// BenchmarkPlanner is the evaluation baseline of Section VII-A: build a
// Christofides tour over the depot and *all* aggregate sensor nodes
// (hovering directly above each node, collecting only that node's data —
// it does not use the paper's simultaneous multi-device collection
// framework), then, while the tour exceeds the energy capacity, remove the
// node whose removal loses the least data volume per unit of energy saved.
// The pruned tour is re-optimised after every removal, matching the
// paper's description of re-computing the tour as nodes are pruned.
type BenchmarkPlanner struct{}

// Name implements Planner.
func (b *BenchmarkPlanner) Name() string { return "benchmark" }

// Plan implements Planner.
func (b *BenchmarkPlanner) Plan(in *Instance) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	rec := in.obsRecorder()
	tr := in.tracer()
	so := newScanObs(rec)
	removals := rec.Counter(CounterBenchRemovals)
	net := in.Net
	n := len(net.Sensors)
	endPlan := tr.Begin(SpanPlanBench, trace.Int("nodes", n+1))
	endCon := tr.Begin(SpanPlanBenchConstruct)
	pt, err := baselineTour(in, rec)
	endCon()
	if err != nil {
		endPlan()
		return nil, fmt.Errorf("core: benchmark tsp: %w", err)
	}

	var hoverTime units.Seconds
	for v := 0; v < n; v++ {
		hoverTime += units.Seconds(net.UploadTime(v))
	}

	removed := 0
	endPrune := tr.Begin(SpanPlanBenchPrune)
	for in.Model.TourEnergy(units.Meters(pt.Cost(pt.dist)), hoverTime) > in.Budget()+1e-9 {
		// Find the cheapest-loss removal.
		tour := pt.Tour
		bestItem, bestPos := -1, -1
		bestScore := 0.0
		for ti, it := range tour.Order {
			if it == 0 {
				continue // never remove the depot
			}
			so.evals.Inc()
			v := it - 1
			travelD := tsp.RemovalDelta(tour, ti, pt.dist)
			saved := in.Model.TravelEnergy(units.Meters(travelD)) + in.Model.HoverEnergy(units.Seconds(net.UploadTime(v)))
			if saved <= 1e-12 {
				// Removing frees no energy (duplicate position); always take it.
				bestItem, bestPos = it, ti
				break
			}
			score := net.Sensors[v].Data / saved.F()
			if bestItem < 0 || score < bestScore {
				bestItem, bestPos, bestScore = it, ti, score
			}
		}
		if bestItem < 0 {
			break // only the depot remains
		}
		hoverTime -= units.Seconds(net.UploadTime(bestItem - 1))
		removals.Inc()
		tr.Event(EventBenchRemove, trace.Int("item", bestItem))
		removed++
		pt.removeAt(bestPos, rec)
	}
	endPrune(trace.Int("removed", removed))
	pt.improve(rec)

	pt.RotateTo(0)
	plan := &Plan{Algorithm: b.Name(), Depot: net.Depot}
	for _, it := range pt.Order {
		if it == 0 {
			continue
		}
		v := it - 1
		plan.Stops = append(plan.Stops, Stop{
			Pos:       net.Sensors[v].Pos,
			LocID:     -1,
			Sojourn:   net.UploadTime(v),
			Collected: []Collection{{Sensor: v, Amount: net.Sensors[v].Data}},
		})
	}
	endPlan(trace.Int("stops", len(plan.Stops)))
	return plan, nil
}

// pos maps benchmark item ids to positions: 0 is the depot, i ≥ 1 is
// sensor i-1.
func pos(in *Instance, i int) geom.Point {
	if i == 0 {
		return in.Net.Depot
	}
	return in.Net.Sensors[i-1].Pos
}

// baselineDist is the flight distance between benchmark items.
func baselineDist(in *Instance) tsp.Metric {
	return func(i, j int) float64 { return pos(in, i).Dist(pos(in, j)) }
}

// prunedTour is the tour both baselines prune, item 0 the depot and item
// v+1 sensor v, with the metric it is priced by. On the fast path rt, a
// tsp.Retour over the memoised distance matrix, replays each re-tour from
// the last fixed point, evaluating only the moves at the edges a removal
// or its own moves changed; the one 8·(n+1)² byte matrix is what every
// re-tour without it would rebuild over the kept items. The reference
// path (rt nil) re-runs a fresh search over the closure after every
// removal. Both yield the same float64s, tours and counters.
type prunedTour struct {
	tsp.Tour
	dist tsp.Metric
	rt   *tsp.Retour
}

// baselineTour builds the Christofides tour over the depot and every
// sensor and polishes it.
func baselineTour(in *Instance, rec obs.Recorder) (*prunedTour, error) {
	n := len(in.Net.Sensors)
	pt := &prunedTour{dist: baselineDist(in)}
	if !in.Reference {
		x := tsp.NewMatrix(n+1, pt.dist)
		pt.dist, pt.rt = x.Metric(), tsp.NewRetour(x)
	}
	items := make([]int, n+1)
	for i := range items {
		items[i] = i
	}
	tour, err := tsp.Christofides(items, pt.dist, rec)
	if err != nil {
		return nil, err
	}
	pt.Tour = tour
	pt.improve(rec)
	return pt, nil
}

// improve polishes the tour.
func (pt *prunedTour) improve(rec obs.Recorder) {
	if pt.rt == nil {
		tsp.ImproveMetric(&pt.Tour, pt.dist, rec)
		return
	}
	pt.rt.Improve(&pt.Tour, pt.dist, rec)
}

// removeAt deletes the item at position i, then polishes the shortened
// tour.
func (pt *prunedTour) removeAt(i int, rec obs.Recorder) {
	pt.Order = slices.Delete(pt.Order, i, i+1)
	pt.improve(rec)
}
