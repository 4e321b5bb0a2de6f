package orienteering

import (
	"fmt"
	"math"
	"math/bits"

	"uavdc/internal/tsp"
)

// ExactMax is the largest node count ExactDP accepts.
const ExactMax = 16

// ExactDP solves the instance optimally by dynamic programming over node
// subsets (Held–Karp with a budget filter): dp[mask][j] is the cheapest
// path that starts at the depot, visits exactly the nodes in mask, and ends
// at j. Every mask whose cheapest depot-closing cycle fits the budget is a
// candidate; the maximum-reward one wins. Exponential — for tests and tiny
// instances only.
func ExactDP(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	n := len(p.Reward)
	if n > ExactMax {
		return Solution{}, fmt.Errorf("orienteering: exact solver limited to %d nodes, got %d", ExactMax, n)
	}
	d := p.Depot
	size := 1 << n

	// A flat copy of Cost's float64s: the DP probes it Θ(n²·2ⁿ) times, and
	// a slice index is cheaper than a call through the Metric view.
	m := p.metric()
	cost := make([]float64, n*n)
	for k := range cost {
		cost[k] = m(k/n, k%n)
	}
	// rewardBy[mask] is the reward sum over mask's nodes in ascending-id
	// order; the lowest-bit recurrence adds ids smallest-first, exactly
	// reproducing that summation order.
	rewardBy := make([]float64, size)
	for mask := 1; mask < size; mask++ {
		lsb := mask & -mask
		rewardBy[mask] = p.Reward[bits.TrailingZeros(uint(lsb))] + rewardBy[mask&^lsb]
	}

	// dp[mask·n+j] is the cheapest depot-rooted path over mask ending at
	// j; flat backing arrays keep the whole table at two allocations.
	dp := make([]float64, size*n)
	parent := make([]int8, size*n)
	inf := math.Inf(1)
	for i := range dp {
		dp[i] = inf
		parent[i] = -1
	}
	startMask := 1 << d
	dp[startMask*n+d] = 0

	bestMask, bestEnd := startMask, d
	bestReward := rewardBy[startMask]
	all := size - 1

	for mask := startMask; mask < size; mask++ {
		if mask&startMask == 0 {
			continue
		}
		row := dp[mask*n:]
		// Ends and extensions iterate set/unset bits in ascending id
		// order — the same visit order as scanning 0..n-1 with skips.
		for ends := mask; ends != 0; ends &= ends - 1 {
			j := bits.TrailingZeros(uint(ends))
			cur := row[j]
			if cur == inf { // exact compare: sentinel test, equivalent to math.IsInf on an untouched table entry
				continue
			}
			// Candidate closed tour: path + return edge.
			if cur+cost[j*n+d] <= p.Budget+1e-9 {
				if r := rewardBy[mask]; r > bestReward+1e-12 {
					bestReward, bestMask, bestEnd = r, mask, j
				}
			}
			for rem := all &^ mask; rem != 0; rem &= rem - 1 {
				nxt := bits.TrailingZeros(uint(rem))
				c := cur + cost[j*n+nxt]
				if c > p.Budget { // cannot recover: costs are non-negative
					continue
				}
				nm := mask | 1<<nxt
				if c < dp[nm*n+nxt] {
					dp[nm*n+nxt] = c
					parent[nm*n+nxt] = int8(j)
				}
			}
		}
	}

	// Reconstruct the best path.
	order := []int{}
	mask, j := bestMask, bestEnd
	for j != -1 {
		order = append(order, j)
		pj := parent[mask*n+j]
		mask &^= 1 << j
		j = int(pj)
	}
	// order is end→depot; reverse to depot→end.
	for i, k := 0, len(order)-1; i < k; i, k = i+1, k-1 {
		order[i], order[k] = order[k], order[i]
	}
	sol := p.solutionFor(tsp.Tour{Order: order})
	return sol, nil
}
