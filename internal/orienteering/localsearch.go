package orienteering

import "uavdc/internal/tsp"

// localSearchRounds caps LocalSearch's improvement rounds.
const localSearchRounds = 64

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
// The depot is never removed. The result's reward is ≥ the input's. It
// stops after localSearchRounds rounds if no fixed point comes first.
func LocalSearch(p *Problem, start Solution) Solution {
	m := p.metric()
	cur := start
	for iter := 0; iter < localSearchRounds; iter++ {
		improved := false
		// Polish ordering first so budget headroom is maximal.
		t := cur.Tour.Clone()
		if p.polish(&t) > 1e-12 {
			cur = p.solutionFor(t)
		}

		in := make([]bool, len(p.Reward))
		for _, v := range cur.Tour.Order {
			in[v] = true
		}

		// Move 1: add.
		for a := p.bestAddition(cur, in, -1); a.v >= 0; a = p.bestAddition(cur, in, -1) {
			p.add(&cur, in, a)
			improved = true
		}

		// Move 2: single swap in/out, each removal priced against one
		// reused copy of the tour without it.
		swapDone := false
		order := cur.Tour.Order
		buf := make([]int, 0, len(order))
		for oi, out := range order {
			if out == p.Depot {
				continue
			}
			buf = append(append(buf[:0], order[:oi]...), order[oi+1:]...)
			removed := tsp.Tour{Order: buf}
			baseCost := cur.Cost - tsp.RemovalDelta(cur.Tour, oi, m)
			for v := 0; v < len(p.Reward) && !swapDone; v++ {
				if in[v] || p.Reward[v] <= p.Reward[out] {
					continue
				}
				pos, inc := tsp.BestInsertion(removed, v, m)
				if baseCost+inc <= p.Budget+1e-12 {
					cur.Tour = tsp.Insert(removed, v, pos)
					cur.Cost = baseCost + inc
					cur.Reward += p.Reward[v] - p.Reward[out]
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
				trial, _ := tsp.Remove(cur.Tour, out, m)
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

// greedyFill packs nodes into sol by best reward-per-delta ratio
// (bestAddition) while the budget allows. The evicted node out ranks
// last, so drop+refill cannot trivially undo its own eviction before
// trying alternatives: it is taken back only when nothing else fits after
// repacking, and the fill ends there.
func greedyFill(p *Problem, sol Solution, out int) Solution {
	in := make([]bool, len(p.Reward))
	for _, v := range sol.Tour.Order {
		in[v] = true
	}
	for a := p.bestAddition(sol, in, out); a.v >= 0; a = p.bestAddition(sol, in, out) {
		p.add(&sol, in, a)
		if a.v == out {
			break
		}
	}
	return sol
}
