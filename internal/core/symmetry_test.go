package core

import (
	"testing"

	"uavdc/internal/hover"
	"uavdc/internal/tsp"
)

// TestPlanMetricsSymmetric: every cost a planner polishes a tour on is
// symmetric bit for bit, as tsp.Matrix requires, on random fields: the
// baselines' matrix, Algorithm 1's G_s matrix, the greedy planners'
// set.Dist and RefinePlan's metric over a plan's stops. On an asymmetric
// cost the 2-opt sweep need not end, so a cost model that breaks the
// symmetry fails here instead of hanging a plan.
func TestPlanMetricsSymmetric(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		in := mediumInstance(t, seed, 1.2e4)
		check := func(what string, x *tsp.Matrix) {
			t.Helper()
			if !x.Symmetric() {
				t.Fatalf("seed %d: %s over %d items is not symmetric bit for bit", seed, what, x.Len())
			}
		}
		check("the baselines' matrix", tsp.NewMatrix(len(in.Net.Sensors)+1, baselineDist(in)))
		set, err := in.buildCandidates()
		if err != nil {
			t.Fatal(err)
		}
		ids := append([]int{hover.DepotID}, disjointCandidates(set)...)
		check("Algorithm 1's G_s matrix", auxiliaryMatrix(set, ids))
		check("the greedy planners' set.Dist", tsp.NewMatrix(set.Len(), newGreedyState(in, set).dist))
		plan, err := (&Algorithm3{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Stops) < 3 {
			t.Fatalf("seed %d: %d stops, want a tour to refine", seed, len(plan.Stops))
		}
		check("RefinePlan's metric", tsp.NewMatrix(len(plan.Stops)+1, stopMetric(plan)))
	}
}
