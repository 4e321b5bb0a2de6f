package graph

import (
	"math"
)

// Prim returns the edges of a minimum spanning tree of the complete graph
// on vertices 0..n-1 whose edge weights come from w, using Prim's
// algorithm with O(n²) scans — the right trade-off for the complete metric
// graphs the planners build. w is read only as w(i, j) with i < j, so it
// need hold only the upper triangle; a weight of +Inf marks an absent
// edge. It returns no edges when n < 2, and (nil, false) when the graph
// is not connected.
func Prim(n int, w func(i, j int) float64) ([]Edge, bool) {
	if n == 0 {
		return nil, true
	}
	inTree := make([]bool, n)
	bestW := make([]float64, n)
	bestTo := make([]int, n)
	for i := range bestW {
		bestW[i] = math.Inf(1)
		bestTo[i] = -1
	}
	bestW[0] = 0
	edges := make([]Edge, 0, n-1)
	for iter := 0; iter < n; iter++ {
		// Pick the cheapest fringe vertex.
		sel := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (sel < 0 || bestW[i] < bestW[sel]) {
				sel = i
			}
		}
		if sel < 0 || math.IsInf(bestW[sel], 1) {
			return nil, false // disconnected
		}
		inTree[sel] = true
		if to := bestTo[sel]; to >= 0 {
			edges = append(edges, Edge{U: min(to, sel), V: max(to, sel), W: bestW[sel]})
		}
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := w(min(sel, i), max(sel, i)); d < bestW[i] {
					bestW[i] = d
					bestTo[i] = sel
				}
			}
		}
	}
	return edges, true
}
