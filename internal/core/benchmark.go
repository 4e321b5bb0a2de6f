package core

import (
	"fmt"

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
	pr, dist, err := baselineTour(in, rec)
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
	for in.Model.TourEnergy(units.Meters(pr.Tour.Cost(dist)), hoverTime) > in.Budget()+1e-9 {
		// Find the cheapest-loss removal.
		tour := pr.Tour
		bestItem, bestPos := -1, -1
		bestScore := 0.0
		for ti, it := range tour.Order {
			if it == 0 {
				continue // never remove the depot
			}
			so.evals.Inc()
			v := it - 1
			var travelD float64
			if in.Reference {
				_, travelD = tsp.Remove(tour, it, dist)
			} else {
				travelD = removalDelta(tour, ti, dist)
			}
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
		pr.RemoveAt(bestPos, rec)
	}
	endPrune(trace.Int("removed", removed))
	pr.Improve(rec)

	pr.RotateTo(0)
	plan := &Plan{Algorithm: b.Name(), Depot: net.Depot}
	for _, it := range pr.Tour.Order {
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

// baselineTour builds the Christofides tour over the depot and every
// sensor (item 0 is the depot, item v+1 is sensor v), polishes it, and
// returns it in the remove-and-re-tour helper both baselines prune
// through, with the metric it is priced by. The fast path memoises the
// distance matrix, so the helper can certify most re-tours in O(n); the
// reference path, and instances over costMemoMax, re-run the full Improve
// over the closure after every removal. All of it yields the same
// float64s, tours and counters.
func baselineTour(in *Instance, rec obs.Recorder) (*tsp.Pruner, tsp.Metric, error) {
	n := len(in.Net.Sensors)
	dist := tsp.Metric(func(i, j int) float64 { return pos(in, i).Dist(pos(in, j)) })
	var x *tsp.Matrix
	if !in.Reference && n+1 <= costMemoMax {
		x = tsp.NewMatrix(n+1, dist)
		dist = x.Metric()
	}
	items := make([]int, n+1)
	for i := range items {
		items[i] = i
	}
	tour, err := tsp.Christofides(items, dist, rec)
	if err != nil {
		return nil, nil, err
	}
	pr := tsp.NewPruner(tour, x, dist)
	pr.Improve(rec)
	return pr, dist, nil
}

// removalDelta is tsp.Remove's cost decrease for the item at position ti
// of t, without its index scan or the pruned-tour copy it allocates.
func removalDelta(t tsp.Tour, ti int, dist tsp.Metric) float64 {
	n := t.Len()
	switch {
	case n >= 3:
		a := t.Order[(ti-1+n)%n]
		b := t.Order[(ti+1)%n]
		return dist(a, t.Order[ti]) + dist(t.Order[ti], b) - dist(a, b)
	case n == 2:
		return 2 * dist(t.Order[0], t.Order[1])
	}
	return 0
}
