package core

import (
	"fmt"
	"sort"

	"uavdc/internal/hover"
	"uavdc/internal/orienteering"
	"uavdc/internal/trace"
	"uavdc/internal/tsp"
)

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
//
// The problem variant this algorithm targets assumes no two selected
// hovering locations share covered sensors; the candidate set is
// pre-filtered to make that literally true (greedy by award).
type Algorithm1 struct{}

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
	set, err := in.buildCandidates()
	if err != nil {
		endCand()
		endPlan()
		return nil, err
	}

	// ids[k] is the hover-set index of orienteering node k; ids[0] is the
	// depot.
	ids := append([]int{hover.DepotID}, disjointCandidates(set)...)
	endCand(trace.Int("candidates", set.Len()), trace.Int("nodes", len(ids)))

	// The solvers read one cost matrix, filled once from the auxiliary
	// weights, instead of recomputing hover and travel energies per probe.
	reward := make([]float64, len(ids))
	for k, id := range ids {
		reward[k] = set.Locs[id].Award.F()
	}
	prob := &orienteering.Problem{
		Cost:   auxiliaryMatrix(set, ids),
		Reward: reward,
		Budget: in.Budget().F(),
		Depot:  0,
	}
	endOr := tr.Begin(SpanPlanAlg1Orienteering, trace.Int("nodes", len(ids)))
	sol, err := orienteering.Solve(prob, in.obsRecorder())
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

// auxiliaryMatrix is G_s over the hover-set indices ids: entry (k, l) is
// w2 of Eq. 9 between ids[k] and ids[l].
func auxiliaryMatrix(set *hover.Set, ids []int) *tsp.Matrix {
	return tsp.NewMatrix(len(ids), func(i, j int) float64 { return set.AuxiliaryWeight(ids[i], ids[j]).F() })
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
