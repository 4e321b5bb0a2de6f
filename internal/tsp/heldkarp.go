package tsp

import (
	"fmt"
	"math"
)

// HeldKarpMax is the largest item count ExactHeldKarp accepts; the DP uses
// O(2^k · k) memory.
const HeldKarpMax = 16

// ExactHeldKarp computes an optimal tour over items by the Held–Karp
// dynamic program over subsets. It is exponential and restricted to
// len(items) ≤ HeldKarpMax; it is the ground-truth oracle for tests.
//
//uavdc:allow deadexport test oracle: the tsp and core exact-solver tests compare planners against it
func ExactHeldKarp(items []int, m Metric) (Tour, float64, error) {
	k := len(items)
	if k > HeldKarpMax {
		return Tour{}, 0, fmt.Errorf("tsp: held-karp limited to %d items, got %d", HeldKarpMax, k)
	}
	switch k {
	case 0:
		return Tour{}, 0, nil
	case 1:
		return Tour{Order: []int{items[0]}}, 0, nil
	case 2:
		return Tour{Order: append([]int(nil), items...)}, 2 * m(items[0], items[1]), nil
	}
	// dp[mask][j]: min cost path starting at 0, visiting exactly the set
	// mask (which contains 0 and j), ending at j.
	size := 1 << k
	dp := make([][]float64, size)
	parent := make([][]int8, size)
	for mask := range dp {
		dp[mask] = make([]float64, k)
		parent[mask] = make([]int8, k)
		for j := range dp[mask] {
			dp[mask][j] = math.Inf(1)
			parent[mask][j] = -1
		}
	}
	dp[1][0] = 0
	for mask := 1; mask < size; mask++ {
		if mask&1 == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			cur := dp[mask][j]
			if math.IsInf(cur, 1) || mask&(1<<j) == 0 {
				continue
			}
			for nxt := 1; nxt < k; nxt++ {
				if mask&(1<<nxt) != 0 {
					continue
				}
				nm := mask | 1<<nxt
				if c := cur + m(items[j], items[nxt]); c < dp[nm][nxt] {
					dp[nm][nxt] = c
					parent[nm][nxt] = int8(j)
				}
			}
		}
	}
	full := size - 1
	bestJ, bestC := -1, math.Inf(1)
	for j := 1; j < k; j++ {
		if c := dp[full][j] + m(items[j], items[0]); c < bestC {
			bestJ, bestC = j, c
		}
	}
	if bestJ < 0 {
		return Tour{}, 0, fmt.Errorf("tsp: held-karp found no tour")
	}
	// Reconstruct.
	order := make([]int, k)
	mask, j := full, bestJ
	for i := k - 1; i >= 1; i-- {
		order[i] = items[j]
		pj := parent[mask][j]
		mask &^= 1 << j
		j = int(pj)
	}
	order[0] = items[0]
	return Tour{Order: order}, bestC, nil
}
