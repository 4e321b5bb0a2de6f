package orienteering

import (
	"math"

	"uavdc/internal/tsp"
)

// GreedyRatio builds a feasible tour by repeatedly inserting the node with
// the best reward-per-marginal-cost ratio at its cheapest insertion
// position, as long as the budget allows. Ties favour higher absolute
// reward. This mirrors the ρ-ratio selection rule of the paper's
// Algorithm 2, applied to a generic orienteering instance.
func GreedyRatio(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	tour := tsp.Tour{Order: []int{p.Depot}}
	cost := 0.0
	in := make([]bool, p.N)
	in[p.Depot] = true
	for {
		bestNode, bestPos := -1, 0
		bestRatio, bestReward := -1.0, 0.0
		var bestDelta float64
		for v := 0; v < p.N; v++ {
			if in[v] {
				continue
			}
			r := p.Reward(v)
			if r <= 0 {
				continue // zero-award node can never help a max-reward tour
			}
			pos, delta := tsp.BestInsertion(tour, v, p.Cost)
			if cost+delta > p.Budget+1e-12 {
				continue
			}
			var ratio float64
			if delta <= 1e-12 {
				ratio = math.Inf(1)
			} else {
				ratio = r / delta
			}
			if ratio > bestRatio || (ratio == bestRatio && r > bestReward) {
				bestNode, bestPos, bestDelta = v, pos, delta
				bestRatio, bestReward = ratio, r
			}
		}
		if bestNode < 0 {
			break
		}
		tour = tsp.Insert(tour, bestNode, bestPos)
		cost += bestDelta
		in[bestNode] = true
		// Periodically re-optimise the tour order to free budget for
		// further insertions; always keeps the tour feasible because
		// local search never increases cost.
		if tour.Len()%8 == 0 {
			p.polish(&tour)
			cost = tour.Cost(p.Cost)
		}
	}
	p.polish(&tour)
	return p.solutionFor(tour), nil
}
