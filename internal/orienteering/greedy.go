package orienteering

import (
	"math"

	"uavdc/internal/tsp"
)

// GreedyRatio builds a feasible tour by repeatedly inserting the node with
// the best reward-per-marginal-cost ratio at its cheapest insertion
// position, as long as the budget allows (bestAddition). This mirrors the
// ρ-ratio selection rule of the paper's Algorithm 2, applied to a generic
// orienteering instance.
func GreedyRatio(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	sol := p.depotOnly()
	in := make([]bool, len(p.Reward))
	in[p.Depot] = true
	for a := p.bestAddition(sol, in, -1); a.v >= 0; a = p.bestAddition(sol, in, -1) {
		p.add(&sol, in, a)
		// Periodically re-optimise the tour order to free budget for
		// further insertions; always keeps the tour feasible because
		// local search never increases cost.
		if sol.Tour.Len()%8 == 0 {
			p.polish(&sol.Tour)
			sol.Cost = sol.Tour.Cost(p.metric())
		}
	}
	p.polish(&sol.Tour)
	return p.solutionFor(sol.Tour), nil
}

// addition is the cheapest insertion of node v into a tour: before
// position pos, raising its cost by delta.
type addition struct {
	v, pos int
	delta  float64
}

// bestAddition returns, among the positive-reward nodes outside sol (in
// false) whose cheapest insertion keeps sol within the budget, the one
// with the best reward per unit of that insertion's cost; an insertion
// that costs nothing ranks above every other. Ties favour the higher
// reward, then the lower index. Node last, unless -1, ranks below every
// other node: it is priced only when none of them fits. The returned v is
// -1 when no node fits.
func (p *Problem) bestAddition(sol Solution, in []bool, last int) addition {
	best := addition{v: -1}
	bestRatio, bestReward := -1.0, 0.0
	consider := func(v int) {
		if in[v] {
			return
		}
		r := p.Reward[v]
		if r <= 0 {
			return // zero-award node can never help a max-reward tour
		}
		pos, delta := tsp.BestInsertion(sol.Tour, v, p.metric())
		if sol.Cost+delta > p.Budget+1e-12 {
			return
		}
		ratio := math.Inf(1)
		if delta > 1e-12 {
			ratio = r / delta
		}
		if ratio > bestRatio || (ratio == bestRatio && r > bestReward) {
			best = addition{v: v, pos: pos, delta: delta}
			bestRatio, bestReward = ratio, r
		}
	}
	for v := range p.Reward {
		if v != last {
			consider(v)
		}
	}
	if best.v < 0 && last >= 0 {
		consider(last)
	}
	return best
}

// add inserts a into sol and marks its node in.
func (p *Problem) add(sol *Solution, in []bool, a addition) {
	sol.Tour = tsp.Insert(sol.Tour, a.v, a.pos)
	sol.Cost += a.delta
	sol.Reward += p.Reward[a.v]
	in[a.v] = true
}
