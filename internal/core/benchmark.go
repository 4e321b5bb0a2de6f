package core

import (
	"fmt"

	"uavdc/internal/geom"
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
	// Item ids: 0 is the depot, 1..n are sensors (sensor v is item v+1).
	// The fast path memoises the distance matrix over depot+sensors and
	// prices removals in place (the neighbour-edge delta computed directly
	// instead of through tsp.Remove's index scan and slice copy). Both are
	// pure expression rewrites yielding the exact same float64s.
	dist := tsp.Metric(func(i, j int) float64 { return pos(in, i).Dist(pos(in, j)) })
	if !in.Reference && n+1 <= costMemoMax {
		dist = tsp.MemoMetric(n+1, dist)
	}
	items := make([]int, n+1)
	for i := range items {
		items[i] = i
	}
	endCon := tr.Begin(SpanPlanBenchConstruct)
	tour, err := tsp.Christofides(items, dist, rec)
	if err != nil {
		endCon()
		endPlan()
		return nil, fmt.Errorf("core: benchmark tsp: %w", err)
	}
	tsp.Improve(&tour, dist, rec)
	endCon()

	var hoverTime units.Seconds
	for v := 0; v < n; v++ {
		hoverTime += units.Seconds(net.UploadTime(v))
	}

	removed := 0
	endPrune := tr.Begin(SpanPlanBenchPrune)
	for in.Model.TourEnergy(units.Meters(tour.Cost(dist)), hoverTime) > in.Budget()+1e-9 {
		// Find the cheapest-loss removal.
		bestItem := -1
		bestScore := 0.0
		tn := tour.Len()
		for ti, it := range tour.Order {
			if it == 0 {
				continue // never remove the depot
			}
			so.evals.Inc()
			v := it - 1
			var travelD float64
			switch {
			case in.Reference:
				_, travelD = tsp.Remove(tour, it, dist)
			case tn >= 3:
				// tsp.Remove's delta for the known position, without the
				// index scan or the pruned-tour copy it allocates.
				a := tour.Order[(ti-1+tn)%tn]
				bb := tour.Order[(ti+1)%tn]
				travelD = dist(a, it) + dist(it, bb) - dist(a, bb)
			case tn == 2:
				travelD = 2 * dist(tour.Order[0], tour.Order[1])
			}
			saved := in.Model.TravelEnergy(units.Meters(travelD)) + in.Model.HoverEnergy(units.Seconds(net.UploadTime(v)))
			if saved <= 1e-12 {
				// Removing frees no energy (duplicate position); always take it.
				bestItem = it
				break
			}
			score := net.Sensors[v].Data / saved.F()
			if bestItem < 0 || score < bestScore {
				bestItem, bestScore = it, score
			}
		}
		if bestItem < 0 {
			break // only the depot remains
		}
		tour, _ = tsp.Remove(tour, bestItem, dist)
		hoverTime -= units.Seconds(net.UploadTime(bestItem - 1))
		removals.Inc()
		tr.Event(EventBenchRemove, trace.Int("item", bestItem))
		removed++
		tsp.Improve(&tour, dist, rec)
	}
	endPrune(trace.Int("removed", removed))
	tsp.Improve(&tour, dist, rec)

	tour.RotateTo(0)
	plan := &Plan{Algorithm: b.Name(), Depot: net.Depot}
	for _, it := range tour.Order {
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
