package core

import (
	"fmt"
	"sort"

	"uavdc/internal/hover"
	"uavdc/internal/orienteering"
	"uavdc/internal/trace"
	"uavdc/internal/tsp"
)

// costMemoMax bounds the node count for which planners materialise dense
// cost matrices (8·n² bytes); larger instances keep closure metrics, and
// their tour polish builds a submatrix over the tour's items per call
// (tsp.ImproveMetric).
const costMemoMax = 2048

// Algorithm1 solves the data-collection maximisation problem without
// hovering coverage overlapping (Section IV) by reduction to rooted
// orienteering on the auxiliary graph G_s: node awards are P(s_j), edge
// weights are w2 of Eq. 9 (half the endpoint hover energies plus travel
// energy), and the budget is the UAV capacity E. Because every node's
// hover energy is split across its two incident tour edges, the cost of a
// closed tour in G_s equals the tour's true total energy exactly
// (Theorem 2), so a feasible orienteering tour is a feasible plan.
//
// The paper's formulation duplicates the depot (d') and asks for a best
// d–d′ path; an orienteering cycle rooted at the depot is the same object,
// which is what the solver computes directly.
type Algorithm1 struct {
	// AllowOverlap skips the disjoint-coverage filtering. The problem
	// variant this algorithm targets assumes no two selected hovering
	// locations share covered sensors; by default the candidate set is
	// pre-filtered to make that literally true (greedy by award). With
	// AllowOverlap set the raw candidate set is used and the realised
	// (deduplicated) volume may be below the orienteering objective.
	AllowOverlap bool
}

// Name implements Planner.
func (a *Algorithm1) Name() string { return "algorithm1" }

// Plan implements Planner.
func (a *Algorithm1) Plan(in *Instance) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	tr := in.tracer()
	endPlan := tr.Begin(SpanPlanAlg1)
	endCand := tr.Begin(SpanPlanAlg1Candidates)
	set, err := in.buildCandidates(hover.Options{})
	if err != nil {
		endCand()
		endPlan()
		return nil, err
	}

	// ids[k] is the hover-set index of orienteering node k; ids[0] is the
	// depot.
	ids := []int{hover.DepotID}
	if a.AllowOverlap {
		for i := 1; i < set.Len(); i++ {
			ids = append(ids, i)
		}
	} else {
		ids = append(ids, disjointCandidates(set)...)
	}
	endCand(trace.Int("candidates", set.Len()), trace.Int("nodes", len(ids)))

	// The fast path hands the solver stack (exact DP, tour split, local
	// search) a dense memoised cost table instead of the raw closure, so
	// it stops recomputing hover/travel energies per probe, and its tour
	// polish sweeps that table directly. Every entry is the exact float64
	// the closure returns.
	cost := tsp.Metric(func(i, j int) float64 { return set.AuxiliaryWeight(ids[i], ids[j]).F() })
	var dense *tsp.Matrix
	if !in.Reference && len(ids) <= costMemoMax {
		dense = tsp.NewMatrix(len(ids), cost)
		cost = dense.Metric()
	}
	prob := &orienteering.Problem{
		N:      len(ids),
		Cost:   cost,
		Dense:  dense,
		Reward: func(i int) float64 { return set.Locs[ids[i]].Award.F() },
		Budget: in.Budget().F(),
		Depot:  0,
	}
	endOr := tr.Begin(SpanPlanAlg1Orienteering, trace.Int("nodes", len(ids)))
	sol, err := orienteering.Solve(prob, orienteering.MethodAuto, in.obsRecorder())
	if err != nil {
		endOr()
		endPlan()
		return nil, fmt.Errorf("core: algorithm1 orienteering: %w", err)
	}
	endOr()
	sol.Tour.RotateTo(0)

	plan := &Plan{Algorithm: a.Name(), Depot: in.Net.Depot}
	claimed := make([]bool, len(in.Net.Sensors))
	for _, k := range sol.Tour.Order {
		if k == 0 {
			continue
		}
		loc := set.Locs[ids[k]]
		stop := Stop{Pos: loc.Pos, LocID: ids[k], Sojourn: loc.Sojourn.F()}
		for _, v := range loc.Covered {
			if !claimed[v] {
				claimed[v] = true
				stop.Collected = append(stop.Collected, Collection{Sensor: v, Amount: in.Net.Sensors[v].Data})
			}
		}
		plan.Stops = append(plan.Stops, stop)
	}
	endPlan(trace.Int("stops", len(plan.Stops)))
	return plan, nil
}

// disjointCandidates greedily selects candidate locations with pairwise-
// disjoint coverage sets, preferring higher award, and returns their
// hover-set indices (depot excluded). This realises the "no hovering
// coverage overlapping" assumption of Section IV on instances whose raw
// grid candidates do overlap.
func disjointCandidates(set *hover.Set) []int {
	order := make([]int, 0, set.Len()-1)
	for i := 1; i < set.Len(); i++ {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := set.Locs[order[a]], set.Locs[order[b]]
		if la.Award != lb.Award { //uavdc:allow floateq exact compare keeps the tie-break order total and bit-reproducible; an epsilon would break transitivity
			return la.Award > lb.Award
		}
		return order[a] < order[b] // deterministic tie-break
	})
	taken := make([]bool, len(set.Net.Sensors))
	var out []int
	for _, i := range order {
		ok := true
		for _, v := range set.Locs[i].Covered {
			if taken[v] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, v := range set.Locs[i].Covered {
			taken[v] = true
		}
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
