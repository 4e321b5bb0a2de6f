package tsp

import (
	"fmt"
	"math"
	"sort"

	"uavdc/internal/graph"
)

// NearestNeighbor builds a tour by starting at items[0] and repeatedly
// moving to the closest unvisited item. Simple, fast (O(k²)) and a useful
// baseline/seed for local search.
func NearestNeighbor(items []int, m Metric) Tour {
	k := len(items)
	if k == 0 {
		return Tour{}
	}
	order := make([]int, 0, k)
	used := make([]bool, k)
	cur := 0
	used[0] = true
	order = append(order, items[0])
	for len(order) < k {
		best, bestD := -1, math.Inf(1)
		for i := 0; i < k; i++ {
			if !used[i] {
				if d := m(items[cur], items[i]); d < bestD {
					best, bestD = i, d
				}
			}
		}
		used[best] = true
		order = append(order, items[best])
		cur = best
	}
	return Tour{Order: order}
}

// CheapestInsertion builds a tour by starting from items[0] and repeatedly
// inserting the unvisited item whose best insertion position increases the
// tour cost least. O(k³) worst case but excellent quality on Euclidean
// instances; used when a fresh tour over a small selected set is needed.
func CheapestInsertion(items []int, m Metric) Tour {
	k := len(items)
	if k == 0 {
		return Tour{}
	}
	order := []int{items[0]}
	used := make([]bool, k)
	used[0] = true
	for len(order) < k {
		bestItem, bestPos, bestDelta := -1, 0, math.Inf(1)
		for i := 0; i < k; i++ {
			if used[i] {
				continue
			}
			pos, delta := BestInsertion(Tour{Order: order}, items[i], m)
			if delta < bestDelta {
				bestItem, bestPos, bestDelta = i, pos, delta
			}
		}
		used[bestItem] = true
		order = append(order, 0)
		copy(order[bestPos+1:], order[bestPos:])
		order[bestPos] = items[bestItem]
	}
	return Tour{Order: order}
}

// MSTLowerBound returns the weight of the minimum spanning tree over items,
// a lower bound on the optimal tour cost (any tour minus one edge is a
// spanning tree). Used by tests to sandwich heuristic tours.
func MSTLowerBound(items []int, m Metric) (float64, error) {
	k := len(items)
	if k < 2 {
		return 0, nil
	}
	edges, ok := graph.Prim(k, func(i, j int) float64 { return m(items[i], items[j]) })
	if !ok {
		return 0, fmt.Errorf("tsp: disconnected")
	}
	return graph.TotalWeight(edges), nil
}

// Validate checks that the tour visits each of the given items exactly once
// and nothing else.
func (t Tour) Validate(items []int) error {
	if len(t.Order) != len(items) {
		return fmt.Errorf("tsp: tour has %d items, want %d", len(t.Order), len(items))
	}
	want := append([]int(nil), items...)
	got := append([]int(nil), t.Order...)
	sort.Ints(want)
	sort.Ints(got)
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("tsp: tour items differ from expected at sorted position %d: %d vs %d", i, got[i], want[i])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			return fmt.Errorf("tsp: duplicate item %d in tour", got[i])
		}
	}
	return nil
}
