package orienteering

import (
	"math"

	"uavdc/internal/tsp"
)

// LocalSearch improves a feasible starting solution by budget-respecting
// moves until a fixed point:
//
//   - add: insert the best-ratio uncovered node if it fits;
//   - swap: replace one tour node with one outside node when that raises
//     reward without breaking the budget;
//   - drop+refill: remove the tour node with the worst reward-per-cost
//     contribution when the freed budget lets two or more better nodes in
//     (evaluated greedily);
//   - polish: 2-opt/Or-opt re-ordering, which only frees budget.
//
// The depot is never removed. The result's reward is ≥ the input's.
func LocalSearch(p *Problem, start Solution, maxIters int) Solution {
	cur := start
	if maxIters <= 0 {
		maxIters = 64
	}
	for iter := 0; iter < maxIters; iter++ {
		improved := false
		// Polish ordering first so budget headroom is maximal.
		t := cur.Tour.Clone()
		if p.polish(&t) > 1e-12 {
			cur = p.solutionFor(t)
		}

		in := make([]bool, p.N)
		for _, v := range cur.Tour.Order {
			in[v] = true
		}

		// Move 1: add.
		for {
			bestV, bestPos, bestDelta, bestRatio := -1, 0, 0.0, -1.0
			for v := 0; v < p.N; v++ {
				if in[v] || p.Reward(v) <= 0 {
					continue
				}
				pos, delta := tsp.BestInsertion(cur.Tour, v, p.Cost)
				if cur.Cost+delta > p.Budget+1e-12 {
					continue
				}
				ratio := math.Inf(1)
				if delta > 1e-12 {
					ratio = p.Reward(v) / delta
				}
				if ratio > bestRatio {
					bestV, bestPos, bestDelta, bestRatio = v, pos, delta, ratio
				}
			}
			if bestV < 0 {
				break
			}
			cur.Tour = tsp.Insert(cur.Tour, bestV, bestPos)
			cur.Cost += bestDelta
			cur.Reward += p.Reward(bestV)
			in[bestV] = true
			improved = true
		}

		// Move 2: single swap in/out.
		swapDone := false
		for _, out := range append([]int(nil), cur.Tour.Order...) {
			if out == p.Depot {
				continue
			}
			removed, dec := tsp.Remove(cur.Tour, out, p.Cost)
			baseCost := cur.Cost - dec
			for v := 0; v < p.N && !swapDone; v++ {
				if in[v] || p.Reward(v) <= p.Reward(out) {
					continue
				}
				pos, inc := tsp.BestInsertion(removed, v, p.Cost)
				if baseCost+inc <= p.Budget+1e-12 {
					cur.Tour = tsp.Insert(removed, v, pos)
					cur.Cost = baseCost + inc
					cur.Reward += p.Reward(v) - p.Reward(out)
					in[v], in[out] = true, false
					improved, swapDone = true, true
				}
			}
			if swapDone {
				break
			}
		}

		// Move 3: drop + refill. Evict one node and greedily repack the
		// freed budget; keep the result only when total reward rises.
		if !improved {
			for _, out := range append([]int(nil), cur.Tour.Order...) {
				if out == p.Depot {
					continue
				}
				trial, _ := tsp.Remove(cur.Tour, out, p.Cost)
				p.polish(&trial)
				cand := p.solutionFor(trial)
				cand = greedyFill(p, cand, out)
				if cand.Reward > cur.Reward+1e-9 {
					cur = cand
					improved = true
					break
				}
			}
		}

		if !improved {
			break
		}
	}
	// Defensive: never return an infeasible or worse-than-start solution.
	if p.Feasible(cur.Tour) != nil || cur.Reward < start.Reward {
		return start
	}
	return cur
}

// greedyFill packs nodes into sol by best reward-per-delta ratio while the
// budget allows, excluding the given node (so drop+refill cannot trivially
// undo its own eviction before trying alternatives).
func greedyFill(p *Problem, sol Solution, exclude int) Solution {
	in := make([]bool, p.N)
	for _, v := range sol.Tour.Order {
		in[v] = true
	}
	for {
		bestV, bestPos, bestDelta, bestRatio := -1, 0, 0.0, -1.0
		for v := 0; v < p.N; v++ {
			if in[v] || v == exclude || p.Reward(v) <= 0 {
				continue
			}
			pos, delta := tsp.BestInsertion(sol.Tour, v, p.Cost)
			if sol.Cost+delta > p.Budget+1e-12 {
				continue
			}
			ratio := math.Inf(1)
			if delta > 1e-12 {
				ratio = p.Reward(v) / delta
			}
			if ratio > bestRatio {
				bestV, bestPos, bestDelta, bestRatio = v, pos, delta, ratio
			}
		}
		if bestV < 0 {
			break
		}
		sol.Tour = tsp.Insert(sol.Tour, bestV, bestPos)
		sol.Cost += bestDelta
		sol.Reward += p.Reward(bestV)
		in[bestV] = true
	}
	// Last chance: if the excluded node still fits after repacking, take
	// it back too.
	if !in[exclude] && p.Reward(exclude) > 0 {
		pos, delta := tsp.BestInsertion(sol.Tour, exclude, p.Cost)
		if sol.Cost+delta <= p.Budget+1e-12 {
			sol.Tour = tsp.Insert(sol.Tour, exclude, pos)
			sol.Cost += delta
			sol.Reward += p.Reward(exclude)
		}
	}
	return sol
}
