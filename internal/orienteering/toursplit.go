package orienteering

import (
	"uavdc/internal/tsp"
)

// TourSplit computes a budget-feasible tour by first building a Christofides
// (+2-opt) tour over every positive-reward node, then — if that tour is too
// expensive — scanning all contiguous windows of the tour and keeping the
// maximum-reward window whose induced closed tour (depot → window → depot,
// shortcutting the rest) fits the budget.
//
// Rationale: when the budget admits the full TSP tour the result is simply
// the Christofides tour, which matches the paper's observation that with a
// large enough energy capacity every node can be served. When the budget is
// tight, the window scan inherits the tour's geometric locality — a
// contiguous stretch of a good TSP tour covers near-maximal reward per unit
// length, the same structural idea behind segment-based orienteering
// approximations (Bansal et al.'s analysis also proceeds by decomposing an
// optimal path into budget-bounded segments).
func TourSplit(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	m := p.metric()
	items := []int{p.Depot}
	for v, r := range p.Reward {
		if v != p.Depot && r > 0 {
			items = append(items, v)
		}
	}
	if len(items) == 1 {
		return p.depotOnly(), nil
	}
	full, err := tsp.Christofides(items, m)
	if err != nil {
		return Solution{}, err
	}
	p.polish(&full)
	full.RotateTo(p.Depot)
	if full.Cost(m) <= p.Budget+1e-9 {
		return p.solutionFor(full), nil
	}

	// Window scan. seq is the tour order with the depot first; windows are
	// taken over seq[1:] (the depot is prepended to every candidate).
	seq := full.Order
	k := len(seq) - 1 // non-depot count
	best := p.depotOnly()
	// Prefix sums of path length and reward along seq[1:].
	pathLen := make([]float64, k) // pathLen[i]: length of seq[1]..seq[i+1] chain
	rew := make([]float64, k)
	for i := 0; i < k; i++ {
		rew[i] = p.Reward[seq[i+1]]
		if i > 0 {
			pathLen[i] = pathLen[i-1] + m(seq[i], seq[i+1])
			rew[i] += rew[i-1]
		}
	}
	chain := func(i, j int) float64 { // path length along seq from node i..j (1-based window)
		if i == j {
			return 0
		}
		return pathLen[j-1] - pathLen[i-1]
	}
	reward := func(i, j int) float64 {
		if i == 1 {
			return rew[j-1]
		}
		return rew[j-1] - rew[i-2]
	}
	// Two-pointer sweep would miss the varying depot-connection costs, so
	// scan all O(k²) windows; k here is the number of reward nodes, which
	// the greedy planners keep modest, and the scan is cheap per window.
	for i := 1; i <= k; i++ {
		for j := i; j <= k; j++ {
			c := m(p.Depot, seq[i]) + chain(i, j) + m(seq[j], p.Depot)
			if c > p.Budget+1e-9 {
				// Window end further right only adds cost along the chain,
				// but the closing edge may shrink; cannot break early in
				// general metrics. Continue scanning.
				continue
			}
			if r := reward(i, j); r > best.Reward+1e-12 {
				order := append([]int{p.Depot}, seq[i:j+1]...)
				cand := tsp.Tour{Order: order}
				// Polish within budget; the polish never increases cost.
				p.polish(&cand)
				best = p.solutionFor(cand)
			}
		}
	}
	return best, nil
}
