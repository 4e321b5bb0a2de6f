package core

import (
	"fmt"
	"testing"

	"uavdc/internal/energy"
	"uavdc/internal/hover"
	"uavdc/internal/rng"
	"uavdc/internal/sensornet"
	"uavdc/internal/tsp"
	"uavdc/internal/units"
)

// oracleInstance is small enough for ExactPlanner: few sensors, coarse
// grid, so the candidate count stays under ExactMaxCandidates.
func oracleInstance(t testing.TB, seed uint64, capacity units.Joules) *Instance {
	t.Helper()
	p := sensornet.DefaultGenParams()
	p.NumSensors = 10
	p.Side = 200
	net, err := sensornet.Generate(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{Net: net, Model: energy.Default().WithCapacity(capacity), Delta: 60, K: 2}
}

func TestExactPlannerValid(t *testing.T) {
	for _, capacity := range []units.Joules{2e3, 5e3, 2e4} {
		in := oracleInstance(t, 1, capacity)
		plan, err := (&ExactPlanner{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidatePlan(in.Net, in.Model, in.EffectiveCoverRadius(), plan); err != nil {
			t.Errorf("E=%g: %v", capacity, err)
		}
	}
}

func TestExactPlannerRejectsLargeInstances(t *testing.T) {
	in := mediumInstance(t, 1, 1e4) // hundreds of candidates
	if _, err := (&ExactPlanner{}).Plan(in); err == nil {
		t.Error("oversized instance accepted")
	}
}

// TestHeuristicsNearOptimal bounds the optimality gap of Algorithms 1–3 on
// oracle-sized instances: the heuristics must reach a large fraction of
// the exact optimum, and never exceed it.
func TestHeuristicsNearOptimal(t *testing.T) {
	var optSum, a1Sum, a2Sum, a3Sum float64
	for seed := uint64(1); seed <= 6; seed++ {
		for _, capacity := range []units.Joules{4e3, 8e3} {
			in := oracleInstance(t, seed, capacity)
			opt, err := (&ExactPlanner{}).Plan(in)
			if err != nil {
				t.Fatal(err)
			}
			optSum += opt.Collected()
			for _, tc := range []struct {
				pl  Planner
				sum *float64
			}{
				{&Algorithm1{}, &a1Sum},
				{&Algorithm2{}, &a2Sum},
				{&Algorithm3{}, &a3Sum},
			} {
				plan, err := tc.pl.Plan(in)
				if err != nil {
					t.Fatal(err)
				}
				got := plan.Collected()
				// Algorithm 1 restricts itself to disjoint coverage, so it
				// may legitimately trail the overlapping optimum; 2 and 3
				// must never beat the oracle.
				if tc.pl.Name() != "algorithm1" && got > opt.Collected()+1e-6 {
					t.Errorf("%s seed=%d E=%g: %v beat the exact optimum %v", tc.pl.Name(), seed, capacity, got, opt.Collected())
				}
				*tc.sum += got
			}
		}
	}
	if a2Sum < 0.9*optSum {
		t.Errorf("algorithm2 total %v below 90%% of optimum %v", a2Sum, optSum)
	}
	if a3Sum < 0.9*optSum {
		t.Errorf("algorithm3 total %v below 90%% of optimum %v", a3Sum, optSum)
	}
	if a1Sum < 0.6*optSum {
		t.Errorf("algorithm1 total %v below 60%% of optimum %v", a1Sum, optSum)
	}
}

func TestExactPlannerZeroBudget(t *testing.T) {
	in := oracleInstance(t, 2, 0)
	plan, err := (&ExactPlanner{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stops) != 0 || plan.Collected() != 0 {
		t.Errorf("zero budget plan: %d stops, %v MB", len(plan.Stops), plan.Collected())
	}
}

func TestExactPlannerHugeBudgetTakesUnion(t *testing.T) {
	in := oracleInstance(t, 3, 1e9)
	plan, err := (&ExactPlanner{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if diff := plan.Collected() - in.Net.TotalData(); diff < -1e-6 || diff > 1e-6 {
		t.Errorf("huge budget collected %v of %v", plan.Collected(), in.Net.TotalData())
	}
}

// ExactMaxCandidates bounds the instances ExactPlanner accepts: the search
// enumerates every subset of hovering candidates.
const ExactMaxCandidates = 16

// ExactPlanner solves the full data-collection maximisation problem (with
// overlapping coverage) optimally on tiny instances, by enumerating every
// subset of hovering candidates, pricing each subset with an exact
// Held–Karp tour and greedy-optimal sensor-to-stop assignment, and keeping
// the best budget-feasible subset. Exponential in the candidate count —
// it exists as the ground-truth oracle that bounds the heuristics'
// optimality gap in tests, exactly as the exact DP does for the
// orienteering layer.
//
// Within a fixed subset S the collected volume is the union of S's
// coverage (every covered sensor fully drained — sojourn at each stop is
// the residual max, and assigning each sensor to one covering stop in any
// order yields the same union), so optimality reduces to choosing the best
// subset under the energy budget with the optimal TSP tour.
type ExactPlanner struct{}

// Name implements Planner.
func (e *ExactPlanner) Name() string { return "exact" }

// Plan implements Planner.
func (e *ExactPlanner) Plan(in *Instance) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	set, err := in.buildCandidates()
	if err != nil {
		return nil, err
	}
	m := set.Len() - 1 // non-depot candidates
	if m > ExactMaxCandidates {
		return nil, fmt.Errorf("core: exact planner limited to %d candidates, got %d (raise delta or shrink the field)", ExactMaxCandidates, m)
	}
	dist := func(i, j int) float64 { return set.Dist(i, j) }

	bestVolume := -1.0
	var bestPlan *Plan
	// Enumerate candidate subsets; bit i of mask selects candidate i+1.
	for mask := 0; mask < 1<<m; mask++ {
		items := []int{hover.DepotID}
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				items = append(items, i+1)
			}
		}
		if len(items) > tsp.HeldKarpMax {
			continue // cannot price exactly; subsets this large exceed the budget anyway on oracle-sized instances
		}
		tour, tourLen, err := tsp.ExactHeldKarp(items, dist)
		if err != nil {
			return nil, err
		}
		tour.RotateTo(hover.DepotID)

		// Assign each sensor to the first stop covering it (tour order);
		// sojourn at each stop is the residual drain over its assigned
		// sensors (assignment order does not change the union volume, and
		// the sum of per-stop residual maxima is minimised by any
		// first-come assignment because each sensor is drained exactly
		// once at full rate).
		plan := &Plan{Algorithm: e.Name(), Depot: in.Net.Depot}
		claimed := make(map[int]bool)
		hoverTime := 0.0
		volume := 0.0
		for _, id := range tour.Order {
			if id == hover.DepotID {
				continue
			}
			loc := &set.Locs[id]
			stop := Stop{Pos: loc.Pos, LocID: id}
			for ci, v := range loc.Covered {
				if claimed[v] {
					continue
				}
				claimed[v] = true
				d := in.Net.Sensors[v].Data
				stop.Collected = append(stop.Collected, Collection{Sensor: v, Amount: d})
				if t := units.TransferTime(units.Bits(d), set.RateAt(id, ci)).F(); t > stop.Sojourn {
					stop.Sojourn = t
				}
				volume += d
			}
			hoverTime += stop.Sojourn
			plan.Stops = append(plan.Stops, stop)
		}
		energy := in.Model.TourEnergy(units.Meters(tourLen), units.Seconds(hoverTime))
		if energy > in.Budget()+1e-9 {
			continue
		}
		if volume > bestVolume+1e-9 {
			bestVolume = volume
			bestPlan = plan
		}
	}
	if bestPlan == nil {
		// Even the empty subset failed, which cannot happen (energy 0);
		// keep a defensive fallback.
		bestPlan = &Plan{Algorithm: e.Name(), Depot: in.Net.Depot}
	}
	return bestPlan, nil
}
