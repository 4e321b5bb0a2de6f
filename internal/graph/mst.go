package graph

import (
	"math"
)

// MSTPrim returns the edges of a minimum spanning tree of g restricted to
// the vertex subset sub (all vertices when sub is nil), using Prim's
// algorithm with O(k²) scans — the right trade-off for the dense complete
// graphs the planners build. It returns nil when the subset has fewer than
// two vertices, and (nil, false) when the subset is not connected.
func MSTPrim(g *Dense, sub []int) ([]Edge, bool) {
	verts := sub
	if verts == nil {
		verts = make([]int, g.N())
		for i := range verts {
			verts[i] = i
		}
	}
	k := len(verts)
	if k == 0 {
		return nil, true
	}
	inTree := make([]bool, k)
	bestW := make([]float64, k)
	bestTo := make([]int, k)
	for i := range bestW {
		bestW[i] = math.Inf(1)
		bestTo[i] = -1
	}
	bestW[0] = 0
	edges := make([]Edge, 0, k-1)
	for iter := 0; iter < k; iter++ {
		// Pick the cheapest fringe vertex.
		sel := -1
		for i := range verts {
			if !inTree[i] && (sel < 0 || bestW[i] < bestW[sel]) {
				sel = i
			}
		}
		if sel < 0 || math.IsInf(bestW[sel], 1) {
			return nil, false // disconnected
		}
		inTree[sel] = true
		if bestTo[sel] >= 0 {
			u, v := verts[bestTo[sel]], verts[sel]
			if u > v {
				u, v = v, u
			}
			edges = append(edges, Edge{U: u, V: v, W: bestW[sel]})
		}
		for i := range verts {
			if !inTree[i] {
				if w := g.Weight(verts[sel], verts[i]); w < bestW[i] {
					bestW[i] = w
					bestTo[i] = sel
				}
			}
		}
	}
	return edges, true
}
