// Package graph implements the weighted-graph machinery the tour planners
// are built on: Prim's minimum spanning tree over a complete graph whose
// weights are read through a function (the auxiliary graphs of the paper
// are complete metric graphs, so no weight matrix is stored), and Eulerian
// circuits (Hierholzer).
package graph

// Edge is an undirected weighted edge with U < V by convention.
type Edge struct {
	U, V int
	W    float64
}

// TotalWeight returns the sum of the weights of the given edges.
//
//uavdc:allow deadexport test oracle: the graph MST tests and the tsp MST lower-bound oracle weigh spanning trees with it
func TotalWeight(edges []Edge) float64 {
	var sum float64
	for _, e := range edges {
		sum += e.W
	}
	return sum
}
